package main

import (
	"fmt"
	"time"

	thrifty "repro"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// Layer probes: a fixed number of calls into one layer's public entry
// points, built the way the Deployment Master builds the layer, with inputs
// taken from the workload's events. A probe gives a layer's cost per call on
// this workload's inputs; the layers nest (the router calls the MPPDB and the
// monitor), so probe figures overlap and do not add up to a pass.

// perOp runs round until it has made at least ops calls and returns the mean
// nanoseconds per call. round returns how many calls it timed and how long
// they took, so its own set-up stays outside the figure.
func perOp(ops int, round func() (int, time.Duration)) (float64, int) {
	var n int
	var total time.Duration
	for n < ops {
		k, d := round()
		if k == 0 {
			return 0, 0
		}
		n += k
		total += d
	}
	return float64(total) / float64(n), n
}

// groupRig is tenant-group 0 of the plan, built bare: its instances, monitor
// and router on a private engine, with no telemetry attached.
type groupRig struct {
	eng   *sim.Engine
	insts []*mppdb.Instance
	rt    *router.GroupRouter
}

func newGroupRig(pg *thrifty.Plan, tenants map[string]*tenant.Tenant) (*groupRig, error) {
	g := pg.Groups[0]
	eng := sim.NewEngine()
	in := tenant.NewInterner()
	var members []*tenant.Tenant
	for _, id := range g.TenantIDs {
		members = append(members, tenants[id])
	}
	rig := &groupRig{eng: eng}
	for i := 0; i < g.Design.A; i++ {
		nodes, err := g.Design.GroupNodes(i)
		if err != nil {
			return nil, err
		}
		inst := mppdb.NewInterned(eng, fmt.Sprintf("%s-probe%d", g.ID, i), nodes, in)
		for _, tn := range members {
			inst.DeployTenant(tn.ID, tn.DataGB)
		}
		rig.insts = append(rig.insts, inst)
	}
	mon, err := monitor.NewGroup(eng, g.ID, g.Design.A, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	rt, err := router.NewGroup(eng, g.ID, rig.insts, members, mon)
	if err != nil {
		return nil, err
	}
	rig.rt = rt
	return rig, nil
}

// probeRuntimeLayers measures sim, mppdb, router, monitor and telemetry on
// the events of tenant-group 0.
func probeRuntimeLayers(cfg runConfig, res *result, w *thrifty.Workload, plan *thrifty.Plan,
	events []event, classes []*queries.Class) error {
	ops := cfg.sc.probeOps
	tenants := w.Tenants()
	inGroup := make(map[string]bool)
	for _, id := range plan.Groups[0].TenantIDs {
		inGroup[id] = true
	}
	var evs []event
	var cls []*queries.Class
	for i := range events {
		if inGroup[events[i].tenant] {
			evs = append(evs, events[i])
			cls = append(cls, classes[i])
		}
	}
	if len(evs) == 0 {
		return nil
	}
	span := func(name string, f func() (float64, int)) {
		sp := cfg.tr.begin(name, -1, 0, -1)
		v, n := f()
		cfg.tr.end(sp)
		res.set(name, v, n)
	}

	span("sim.ns_per_event", func() (float64, int) {
		noop := func(sim.Time) {}
		return perOp(ops, func() (int, time.Duration) {
			eng := sim.NewEngine()
			t0 := time.Now()
			for i := range events {
				eng.Schedule(events[i].at, noop)
			}
			eng.RunAll()
			return len(events), time.Since(t0)
		})
	})

	var rigErr error
	span("mppdb.ns_per_query", func() (float64, int) {
		return perOp(ops, func() (int, time.Duration) {
			rig, err := newGroupRig(plan, tenants)
			if err != nil {
				rigErr = err
				return 0, 0
			}
			inst := rig.insts[0]
			refs := make([]tenant.Ref, len(evs))
			for i := range evs {
				refs[i], _ = inst.Interner().Lookup(evs[i].tenant)
			}
			inst.SetCompletionHandler(func(mppdb.Result, uint64) {})
			t0 := time.Now()
			for i := range evs {
				rig.eng.Run(evs[i].at)
				if _, err := inst.SubmitTagged(refs[i], cls[i], uint64(i)); err != nil {
					rigErr = err
					return 0, 0
				}
			}
			rig.eng.RunAll()
			return len(evs), time.Since(t0)
		})
	})

	span("router.ns_per_submit", func() (float64, int) {
		return perOp(ops, func() (int, time.Duration) {
			rig, err := newGroupRig(plan, tenants)
			if err != nil {
				rigErr = err
				return 0, 0
			}
			refs := make([]tenant.Ref, len(evs))
			for i := range evs {
				refs[i] = rig.rt.Ref(evs[i].tenant)
			}
			t0 := time.Now()
			for i := range evs {
				rig.eng.Run(evs[i].at)
				if _, err := rig.rt.SubmitRef(refs[i], cls[i], evs[i].sla); err != nil {
					rigErr = err
					return 0, 0
				}
			}
			rig.eng.RunAll()
			return len(evs), time.Since(t0)
		})
	})

	span("monitor.ns_per_record", func() (float64, int) {
		return perOp(ops, func() (int, time.Duration) {
			eng := sim.NewEngine()
			mon, err := monitor.NewGroup(eng, "probe", plan.Groups[0].Design.A, 24*time.Hour)
			if err != nil {
				rigErr = err
				return 0, 0
			}
			t0 := time.Now()
			for i := range evs {
				eng.Run(evs[i].at)
				mon.QueryStarted(evs[i].tenant)
				mon.QueryFinished(monitor.QueryRecord{Tenant: evs[i].tenant, Class: cls[i],
					Submit: evs[i].at, Finish: evs[i].at + evs[i].sla, SLATarget: evs[i].sla, MPPDB: "probe"})
			}
			return len(evs), time.Since(t0)
		})
	})

	span("telemetry.ns_per_span", func() (float64, int) {
		return perOp(ops, func() (int, time.Duration) {
			eng := sim.NewEngine()
			hub := telemetry.NewHub(eng, plan.Config.P)
			hist := hub.Registry.Histogram("probe_seconds", nil, "mppdb", "probe")
			t0 := time.Now()
			for i := range evs {
				sp := hub.Tracer.StartSpan("query", "group", "probe", "tenant", evs[i].tenant, "class", evs[i].class)
				sp.End()
				hist.Observe(evs[i].sla.Seconds())
			}
			return len(evs), time.Since(t0)
		})
	})
	return rigErr
}

// probeEpoch measures the count-set algebra the solver spends its time in:
// each group of the solution is rebuilt member by member, previewing every
// addition before committing it, as T_best does.
func probeEpoch(res *result, prob *grouping.Problem, sol *grouping.Solution) {
	var add, preview time.Duration
	n := 0
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for gi := range sol.Groups {
			cs := epoch.NewCountSet(prob.D)
			for _, idx := range sol.Groups[gi].Items {
				sp := prob.Items[idx].Spans
				t0 := time.Now()
				tr := cs.Preview(sp)
				t1 := time.Now()
				cs.Add(sp)
				t2 := time.Now()
				preview += t1.Sub(t0)
				add += t2.Sub(t1)
				probeSink += tr.Top()
				n++
			}
		}
	}
	res.set("epoch.ns_per_preview", float64(preview)/float64(n), n)
	res.set("epoch.ns_per_add", float64(add)/float64(n), n)
}

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int
