package experiments

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/sim"
)

// ChaosRecovery runs the §4.4 crash faults against a consolidated
// deployment: a randomized-but-seeded schedule of node crashes, repeat
// crashes mid-recovery, and cross-group bursts lands on the largest
// tenant-groups during a one-day replay. Every repair is autonomous — each
// crash schedules its group's recovery controller's detection at the first
// instant of the controller's 30-s grid at or after the fault; the
// controller swaps the node at the pool and prices replacement startup plus
// bulk reload by the Table 5.1 model while the instance serves degraded. The
// outcome table records the SLA guarantee (min RT-TTP vs P) and the pool
// leak check.
func ChaosRecovery(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// One deployment of the largest groups (so failure bursts span groups),
	// bounded like the headline SLA validation.
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), env.Scale.ReplayGroups))
	// The derived crash mix: a crash every ~2 h, a quarter of them repeated
	// mid-recovery, one in ten a cross-group burst. The largest groups
	// reload for over a day (Table 5.1, single-stream share of the tenant
	// data), so the drain needs enough room to finish every recovery and
	// re-image before the pool is tallied.
	arms, err := runArms(env, w, chaos.Window{To: sim.Day, DrainSlack: 3 * 24 * time.Hour},
		faultArm{cluster.NewPool(2 * w.plan.NodesUsed()), master.Options{Immediate: true}, chaos.Crashes{}})
	if err != nil {
		return nil, err
	}
	res := arms[0]

	lifecycles := &Table{
		Title:   "Chaos recovery — autonomous lifecycles (detection on the controller's 30-s grid, pool swap, Table 5.1 reload)",
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
	if err := res.Verify(0); err != nil { // P = 0: recovery and the pool alone
		recVerdict = fmt.Sprintf("FAIL: %v", err)
	}
	slaVerdict := fmt.Sprintf("held (min RT-TTP %.4f ≥ P=%.4f)", res.MinRTTTP, plan.Config.P)
	if res.MinRTTTP < plan.Config.P {
		slaVerdict = fmt.Sprintf("dipped to %.4f < P=%.4f while concurrent failures degraded a whole group",
			res.MinRTTTP, plan.Config.P)
	}
	outcome := &Table{
		Title:   fmt.Sprintf("Chaos recovery — outcome (%d groups, seed %d)", len(w.plan.Groups), env.Seed),
		Columns: []string{"metric", "value"},
	}
	outcome.AddRow("failures injected / applied", fmt.Sprintf("%d / %d", len(res.CrashSchedule), res.Applied))
	outcome.AddRow("recoveries completed / in flight", fmt.Sprintf("%d / %d", res.Recovered, res.InFlight))
	outcome.AddRow("min RT-TTP (guarantee, ≥ P)", fmt.Sprintf("%.4f (P=%.4f)", res.MinRTTTP, plan.Config.P))
	outcome.AddRow("per-query SLA attainment", pct(res.Attainment))
	outcome.AddRow("pool active / expected", fmt.Sprintf("%d / %d", res.ActiveNodes, res.ExpectedActive))
	outcome.AddRow("pool failed / repairing", fmt.Sprintf("%d / %d", res.FailedNodes, res.RepairingNodes))
	outcome.AddRow("recovery verdict", recVerdict)
	outcome.AddRow("SLA guarantee", slaVerdict)
	return []*Table{lifecycles, outcome}, nil
}

// faultArm is one arm of a fault experiment: the pool and master options
// it deploys with, and the fault it replays under.
type faultArm struct {
	pool  *cluster.Pool
	opts  master.Options
	fault chaos.Fault
}

// runArms deploys w once per arm and replays it over win under the arm's
// fault, seeded by the environment.
func runArms(env *Env, w subWorld, win chaos.Window, arms ...faultArm) ([]*chaos.Result, error) {
	res := make([]*chaos.Result, len(arms))
	for i, a := range arms {
		eng, dep, err := w.deploy(a.pool, a.opts)
		if err != nil {
			return nil, err
		}
		res[i], err = chaos.Run(eng, dep, env.Cat, w.logs, chaos.Config{Seed: env.Seed, Window: win, Faults: []chaos.Fault{a.fault}})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyArms runs Verify on a fault experiment's arms — no-fault, bare and,
// when there is one, protected, in that order — and words the first
// failure; "" when all pass.
func verifyArms(p float64, res []*chaos.Result) string {
	for i, r := range res {
		if err := r.Verify(p); err != nil {
			return fmt.Sprintf("FAIL: %s: %v", []string{"baseline", "bare", "protected"}[i], err)
		}
	}
	return ""
}

// armsTable renders a fault experiment's outcome, one column per arm (no-fault,
// bare and, when there is one, protected): the attainment and RT-TTP rows
// every fault experiment reports, the experiment's own metrics (cells returns
// an arm's, in order), the pool leak check and, under the last arm, the
// verdict ("" renders PASS).
func armsTable(title string, res []*chaos.Result, verdict string, metrics []string, cells func(*chaos.Result) []any) *Table {
	t := &Table{Title: title, Columns: append([]string{"metric"}, []string{"no-fault", "bare", "protected"}[:len(res)]...)}
	metrics = append(append([]string{"per-query SLA attainment", "worst member attainment", "min RT-TTP"},
		metrics...), "pool active/expected")
	cols := make([][]any, len(res))
	for i, r := range res {
		cols[i] = append(append([]any{pct(r.Attainment), pct(r.MinAttainment), fmt.Sprintf("%.4f", r.MinRTTTP)},
			cells(r)...), fmt.Sprintf("%d/%d", r.ActiveNodes, r.ExpectedActive))
	}
	for k, m := range metrics {
		row := []any{m}
		for _, c := range cols {
			row = append(row, c[k])
		}
		t.AddRow(row...)
	}
	row := []any{"verdict"}
	for range res[1:] {
		row = append(row, "")
	}
	t.AddRow(append(row, cmp.Or(verdict, "PASS"))...)
	return t
}
