package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/sim"
)

// ChaosRecovery runs the §4.4 chaos harness against a consolidated
// deployment: a randomized-but-seeded schedule of node crashes, repeat
// crashes mid-recovery, and cross-group bursts lands on the largest
// tenant-groups during a one-day replay. Every repair is autonomous — the
// per-group recovery controllers detect each failure on a heartbeat, swap
// the node at the pool, and price replacement startup plus bulk reload by
// the Table 5.1 model while the instance serves degraded. The outcome table
// records the SLA guarantee (min RT-TTP vs P) and the pool leak check.
func ChaosRecovery(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// One deployment of the largest groups (so failure bursts span groups),
	// bounded like the headline SLA validation.
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), env.Scale.ReplayGroups))
	eng, dep, err := w.deploy(cluster.NewPool(2*w.plan.NodesUsed()), master.Options{Immediate: true})
	if err != nil {
		return nil, err
	}
	cfg := chaos.DefaultConfig()
	cfg.Seed = env.Seed
	cfg.From, cfg.To = 0, sim.Day
	// The largest groups reload for over a day (Table 5.1, single-stream
	// share of the tenant data), so the drain needs enough room to finish
	// every recovery and re-image before the pool is tallied.
	cfg.DrainSlack = 3 * 24 * time.Hour
	res, err := chaos.Run(eng, dep, env.Cat, w.logs, cfg)
	if err != nil {
		return nil, err
	}

	lifecycles := &Table{
		Title:   "Chaos recovery — autonomous lifecycles (heartbeat detection, pool swap, Table 5.1 reload)",
		Columns: []string{"mppdb", "detected", "replaced", "repaired", "attempts", "node out", "node in"},
	}
	for _, rec := range res.Report.RecoveryEvents {
		repaired := "—"
		if rec.Recovered() {
			repaired = rec.Completed.String()
		}
		lifecycles.AddRow(rec.MPPDB, rec.Detected.String(), rec.Replaced.String(),
			repaired, rec.Attempts, rec.FailedNode, rec.ReplacementNode)
	}

	// Two separate verdicts: autonomous recovery must always complete and
	// leave the pool leak-free; the SLA guarantee is reported as observed —
	// when the schedule degrades every replica of a data-heavy group at
	// once, its RT-TTP genuinely dips for the (long, Table 5.1) reload.
	recVerdict := "PASS"
	if res.Recovered < res.Applied || res.InFlight != 0 {
		recVerdict = fmt.Sprintf("FAIL: %d of %d recovered, %d in flight",
			res.Recovered, res.Applied, res.InFlight)
	} else if res.ActiveNodes != res.ExpectedActive || res.FailedNodes != 0 || res.RepairingNodes != 0 {
		recVerdict = fmt.Sprintf("FAIL: pool leak — active %d (want %d), failed %d, repairing %d",
			res.ActiveNodes, res.ExpectedActive, res.FailedNodes, res.RepairingNodes)
	}
	slaVerdict := fmt.Sprintf("held (min RT-TTP %.4f ≥ P=%.4f)", res.MinRTTTP, plan.Config.P)
	if res.MinRTTTP < plan.Config.P {
		slaVerdict = fmt.Sprintf("dipped to %.4f < P=%.4f while concurrent failures degraded a whole group",
			res.MinRTTTP, plan.Config.P)
	}
	outcome := &Table{
		Title:   fmt.Sprintf("Chaos recovery — outcome (%d groups, seed %d)", len(w.plan.Groups), cfg.Seed),
		Columns: []string{"metric", "value"},
	}
	outcome.AddRow("failures injected / applied", fmt.Sprintf("%d / %d", res.Injected, res.Applied))
	outcome.AddRow("recoveries completed / in flight", fmt.Sprintf("%d / %d", res.Recovered, res.InFlight))
	outcome.AddRow("min RT-TTP (guarantee, ≥ P)", fmt.Sprintf("%.4f (P=%.4f)", res.MinRTTTP, plan.Config.P))
	outcome.AddRow("per-query SLA attainment", pct(res.Attainment))
	outcome.AddRow("pool active / expected", fmt.Sprintf("%d / %d", res.ActiveNodes, res.ExpectedActive))
	outcome.AddRow("pool failed / repairing", fmt.Sprintf("%d / %d", res.FailedNodes, res.RepairingNodes))
	outcome.AddRow("recovery verdict", recVerdict)
	outcome.AddRow("SLA guarantee", slaVerdict)
	return []*Table{lifecycles, outcome}, nil
}
