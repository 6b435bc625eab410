package experiments

import (
	"sort"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/sim"
	"repro/internal/workload"
)

// subWorld is some of a plan's groups as a standalone plan, with the logs of
// their members — the scoping step of every run-time experiment, which
// replays a few groups of the default plan rather than all of it.
type subWorld struct {
	plan *advisor.Plan
	logs []*workload.TenantLog
}

// planDefault plans the environment's default population under cfg.
func planDefault(env *Env, cfg advisor.Config) ([]*workload.TenantLog, *advisor.Plan, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, nil, err
	}
	adv, err := advisor.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	plan, err := adv.Plan(logs, env.Horizon())
	return logs, plan, err
}

// rank returns the plan's group indices ordered by before (whether group a
// ranks strictly ahead of group b), ties in plan order. The tie-break is
// explicit: sort.Slice is unstable, and a plan has far more equal-sized
// groups than the dozen below which it happens to keep input order.
func rank(plan *advisor.Plan, before func(a, b int) bool) []int {
	idx := make([]int, len(plan.Groups))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if before(a, b) {
			return true
		}
		return !before(b, a) && a < b
	})
	return idx
}

// largestFirst ranks a plan's groups by member count, most-populated first.
func largestFirst(plan *advisor.Plan) func(a, b int) bool {
	return func(a, b int) bool {
		return len(plan.Groups[a].TenantIDs) > len(plan.Groups[b].TenantIDs)
	}
}

// top returns the first n of a ranking (all of it when shorter).
func top(ranked []int, n int) []int {
	if len(ranked) > n {
		return ranked[:n]
	}
	return ranked
}

// carve extracts the listed groups of the plan, in the order listed, and
// their members' logs, in group then member order.
func carve(plan *advisor.Plan, logs []*workload.TenantLog, groups []int) subWorld {
	byID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		byID[tl.Tenant.ID] = tl
	}
	w := subWorld{plan: &advisor.Plan{Config: plan.Config}}
	for _, gi := range groups {
		pg := plan.Groups[gi]
		w.plan.Groups = append(w.plan.Groups, pg)
		for _, id := range pg.TenantIDs {
			w.logs = append(w.logs, byID[id])
		}
	}
	return w
}

// deploy brings the sub-world up on the given pool, with a fresh coordinator
// engine for replay.Run.
func (w subWorld) deploy(pool *cluster.Pool, opts master.Options) (*sim.Engine, *master.Deployment, error) {
	dep, err := master.New(pool, opts).Deploy(w.plan, Tenants(w.logs))
	return sim.NewEngine(), dep, err
}
