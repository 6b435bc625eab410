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

// GrayFail measures what fail-slow faults cost a deployment: the same seeded
// storm of fractional slowdowns (stuck, gradual, flapping) replays twice
// against identical deployments of the largest tenant-groups — once with no
// faults at all (the attainment baseline) and once bare, serving through
// the slowdown. There is no fail-slow detector (the paper's recovery acts on
// crashed nodes, §4.4), so the verdict holds only the structural bar: no
// recovery in flight, a leak-free pool, and no instance left slow.
func GrayFail(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), env.Scale.ReplayGroups))

	// One storm for both arms; an explicit empty schedule turns the
	// injection off for the baseline while keeping the replay identical.
	// Nothing in a slowdown run acquires a node, so the pool is the plan's.
	arm := func(slow chaos.Slowdowns) faultArm {
		return faultArm{cluster.NewPool(w.plan.NodesUsed()), master.Options{Immediate: true}, slow}
	}
	res, err := runArms(env, w, chaos.Window{To: sim.Day, DrainSlack: 3 * 24 * time.Hour},
		arm(chaos.Slowdowns{Schedule: []chaos.Slowdown{}}),
		arm(chaos.Slowdowns{}))
	if err != nil {
		return nil, err
	}
	bare := res[1]

	schedule := &Table{
		Title:   fmt.Sprintf("Gray failure — injected fail-slow schedule (group %s, seed %d)", bare.Group, env.Seed),
		Columns: []string{"at", "instance", "profile", "factor", "duration"},
	}
	for _, e := range bare.SlowSchedule {
		schedule.AddRow(e.At.String(), e.Instance, string(e.Profile),
			fmt.Sprintf("%.2f", e.Factor), e.Duration.String())
	}

	outcome := armsTable(fmt.Sprintf("Gray failure — no-fault vs bare (%d groups, seed %d)",
		len(w.plan.Groups), env.Seed), res, verifyArms(plan.Config.P, res),
		[]string{"instances slow at end"},
		func(r *chaos.Result) []any { return []any{r.ResidualSlow} })
	return []*Table{schedule, outcome}, nil
}
