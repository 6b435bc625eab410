package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery"
	"repro/internal/recovery/chaos"
	"repro/internal/sim"
)

// GrayFail measures the fail-slow response ladder: the same seeded storm of
// fractional slowdowns (stuck, gradual, flapping) replays three times against
// identical deployments of the largest tenant-groups — once with no faults at
// all (the attainment baseline), once bare (the deployment just eats the
// slowdown), and once with the gray detector armed (peer-relative anomaly
// detection → hedged duplicates → drain-and-replace). The verdict is the
// paper-style restoration bar: the protected run's per-query SLA attainment
// must land within one point of the no-fault baseline, while the bare run
// shows what gray failure costs an undefended deployment.
func GrayFail(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), env.Scale.ReplayGroups))

	// One storm config for every arm; an explicit empty schedule turns the
	// injection off for the baseline while keeping the replay identical.
	run := func(gray *recovery.GrayConfig, sched []chaos.Slowdown) (*chaos.GrayFailResult, error) {
		eng, dep, err := w.deploy(cluster.NewPool(2*w.plan.NodesUsed()), master.Options{Immediate: true, Gray: gray})
		if err != nil {
			return nil, err
		}
		cfg := chaos.DefaultGrayFailConfig()
		cfg.Seed = env.Seed
		cfg.From, cfg.To = 0, sim.Day
		// Drain-and-replace pays the Table 5.1 reload of the group's share,
		// which for the largest groups runs past a day.
		cfg.DrainSlack = 3 * 24 * time.Hour
		cfg.Slowdowns = sched
		return chaos.RunGrayFail(eng, dep, env.Cat, w.logs, cfg)
	}

	baseline, err := run(nil, []chaos.Slowdown{})
	if err != nil {
		return nil, err
	}
	bare, err := run(nil, nil)
	if err != nil {
		return nil, err
	}
	// Affinity routing leaves some instances sample-sparse, so the profile
	// window is short enough for the mean to track an onset within a few
	// completions. Clearing demands a healthy stretch longer than the
	// flapping profile's off-phase (BuildSlowdowns flaps on a Duration/6
	// half-cycle), so a flapper stays hedged across its whole episode
	// instead of being re-admitted and re-detected every cycle. Drain
	// patience must outlast a transient episode (~2 h here) so hedging
	// carries the group through and the multi-day Table 5.1 reload is
	// reserved for instances that stay sick.
	gcfg := recovery.DefaultGrayConfig()
	gcfg.Window = 16
	gcfg.MinSamples = 4
	gcfg.ConfirmBeats = 2
	gcfg.ClearBeats = 30
	gcfg.DrainAfter = 4 * time.Hour
	protected, err := run(&gcfg, nil)
	if err != nil {
		return nil, err
	}

	schedule := &Table{
		Title:   fmt.Sprintf("Gray failure — injected fail-slow schedule (group %s, seed %d)", bare.Group, env.Seed),
		Columns: []string{"at", "instance", "profile", "factor", "duration"},
	}
	for _, e := range bare.Schedule {
		schedule.AddRow(e.At.String(), e.Instance, string(e.Profile),
			fmt.Sprintf("%.2f", e.Factor), e.Duration.String())
	}

	ladder := &Table{
		Title:   "Gray failure — detector episodes (protected run)",
		Columns: []string{"mppdb", "suspected", "confirmed", "drained", "cleared", "resolution", "hedged in-flight"},
	}
	for _, ev := range protected.GrayEvents {
		mark := func(t sim.Time) string {
			if t == 0 {
				return "—"
			}
			return t.String()
		}
		ladder.AddRow(ev.MPPDB, ev.Suspected.String(), mark(ev.Confirmed),
			mark(ev.Drained), mark(ev.Cleared), ev.Resolution, ev.Hedged)
	}

	verdict := "PASS"
	if err := baseline.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: baseline: %v", err)
	} else if err := bare.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: bare: %v", err)
	} else if err := protected.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: protected: %v", err)
	} else if protected.Attainment < baseline.Attainment-0.01 {
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 1%% below no-fault %.4f",
			protected.Attainment, baseline.Attainment)
	}

	outcome := &Table{
		Title:   fmt.Sprintf("Gray failure — bare vs hedge→drain ladder (%d groups, seed %d)", len(w.plan.Groups), env.Seed),
		Columns: []string{"metric", "no-fault", "bare", "protected"},
	}
	outcome.AddRow("per-query SLA attainment", pct(baseline.Attainment), pct(bare.Attainment), pct(protected.Attainment))
	outcome.AddRow("worst member attainment", pct(baseline.MinAttainment), pct(bare.MinAttainment), pct(protected.MinAttainment))
	outcome.AddRow("min RT-TTP", fmt.Sprintf("%.4f", baseline.MinRTTTP),
		fmt.Sprintf("%.4f", bare.MinRTTTP), fmt.Sprintf("%.4f", protected.MinRTTTP))
	outcome.AddRow("episodes suspected/confirmed/drained", "0/0/0",
		fmt.Sprintf("%d/%d/%d", bare.Suspected, bare.Confirmed, bare.Drained),
		fmt.Sprintf("%d/%d/%d", protected.Suspected, protected.Confirmed, protected.Drained))
	outcome.AddRow("queries hedged (peer wins)", "0 (0)",
		fmt.Sprintf("%d (%d)", bare.Hedged, bare.HedgeWins),
		fmt.Sprintf("%d (%d)", protected.Hedged, protected.HedgeWins))
	outcome.AddRow("pool active/expected",
		fmt.Sprintf("%d/%d", baseline.ActiveNodes, baseline.ExpectedActive),
		fmt.Sprintf("%d/%d", bare.ActiveNodes, bare.ExpectedActive),
		fmt.Sprintf("%d/%d", protected.ActiveNodes, protected.ExpectedActive))
	outcome.AddRow("verdict", "", "", verdict)
	return []*Table{schedule, ladder, outcome}, nil
}
