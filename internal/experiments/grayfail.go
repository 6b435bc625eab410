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
	// One storm for every arm; an explicit empty schedule turns the
	// injection off for the baseline while keeping the replay identical.
	// Drain-and-replace pays the Table 5.1 reload of the group's share,
	// which for the largest groups runs past a day.
	arm := func(gray *recovery.GrayConfig, slow chaos.Slowdowns) faultArm {
		return faultArm{cluster.NewPool(2 * w.plan.NodesUsed()), master.Options{Immediate: true, Gray: gray}, slow}
	}
	res, err := runArms(env, w, chaos.Window{To: sim.Day, DrainSlack: 3 * 24 * time.Hour},
		arm(nil, chaos.Slowdowns{Schedule: []chaos.Slowdown{}}),
		arm(nil, chaos.Slowdowns{}),
		arm(&gcfg, chaos.Slowdowns{}))
	if err != nil {
		return nil, err
	}
	baseline, bare, protected := res[0], res[1], res[2]

	schedule := &Table{
		Title:   fmt.Sprintf("Gray failure — injected fail-slow schedule (group %s, seed %d)", bare.Group, env.Seed),
		Columns: []string{"at", "instance", "profile", "factor", "duration"},
	}
	for _, e := range bare.SlowSchedule {
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

	verdict := verifyArms(plan.Config.P, res)
	if verdict == "" && protected.Attainment < baseline.Attainment-0.01 {
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 1%% below no-fault %.4f",
			protected.Attainment, baseline.Attainment)
	}
	outcome := armsTable(fmt.Sprintf("Gray failure — bare vs hedge→drain ladder (%d groups, seed %d)",
		len(w.plan.Groups), env.Seed), res, verdict,
		[]string{"episodes suspected/confirmed/drained", "queries hedged (peer wins)"},
		func(r *chaos.Result) []any {
			return []any{fmt.Sprintf("%d/%d/%d", r.Suspected, r.Confirmed, r.Drained),
				fmt.Sprintf("%d (%d)", r.Hedged, r.HedgeWins)}
		})
	return []*Table{schedule, ladder, outcome}, nil
}
