package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/sim"
)

// Fig77Result carries the elastic-scaling experiment's two runs (scaling
// disabled = panels a/b, enabled = panels c/d).
type Fig77Result struct {
	Group      string
	Members    int
	Timeline   *Table // RT-TTP over time, both runs side by side
	Perf       *Table // normalized query performance of the group
	Events     *Table // scaling actions of the enabled run
	TakeOverAt sim.Time
}

// Tables renders the result.
func (r *Fig77Result) Tables() []*Table {
	return []*Table{r.Timeline, r.Perf, r.Events}
}

// Fig77ElasticScaling reproduces §7.5 / Figure 7.7: pick a tenant-group
// from the default deployment plan, replay its real activity, take over one
// tenant partway in ("we manually took over a tenant at time Y and
// continuously submitted queries on behalf of that tenant"), and compare
// the group's run-time behaviour with elastic scaling disabled (RT-TTP
// stays depressed, queries keep missing the SLA) and enabled (the
// over-active tenant is carved out onto a dedicated MPPDB and RT-TTP
// recovers).
func Fig77ElasticScaling(env *Env) (*Fig77Result, error) {
	acfg := advisor.DefaultConfig()
	logs, plan, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}
	// Pick a multi-tenant 4-node group (the paper's group has 14 four-node
	// tenants); fall back to the biggest group of any size.
	if len(plan.Groups) == 0 {
		return nil, fmt.Errorf("fig77: the plan has no groups")
	}
	fourNode := func(gi int) bool {
		g := &plan.Groups[gi]
		return g.Design.N1 == 4 && len(g.TenantIDs) >= 4
	}
	bySize := largestFirst(plan)
	ranked := rank(plan, func(a, b int) bool {
		if fourNode(a) != fourNode(b) {
			return fourNode(a)
		}
		return bySize(a, b)
	})
	// Restrict the world to just this group.
	w := carve(plan, logs, ranked[:1])
	pick := &w.plan.Groups[0]
	victim := pick.TenantIDs[0]
	// Continuous submission: the interval is shorter than TPCH-Q1's latency
	// on the victim's configuration, so the tenant never goes inactive —
	// the paper's "continuously submitted queries on behalf of that tenant".
	takeOver := chaos.TakeOver{
		Tenant:   victim,
		Start:    sim.Time(1) * sim.Day,
		Interval: 3 * time.Second,
	}
	window := sim.Time(min(env.Scale.Days, 4)) * sim.Day

	arm := func(scaling bool) faultArm {
		return faultArm{cluster.NewPool(w.plan.NodesUsed() + 64),
			master.Options{Immediate: true, ParallelLoad: true, Scaling: scaling}, takeOver}
	}
	arms, err := runArms(env, w, chaos.Window{To: window, SampleEvery: time.Hour}, arm(false), arm(true))
	if err != nil {
		return nil, err
	}
	type run struct {
		name string
		rep  *replay.Report
	}
	runs := []run{{"disabled", arms[0].Report}, {"enabled", arms[1].Report}}

	res := &Fig77Result{Group: pick.ID, Members: len(pick.TenantIDs), TakeOverAt: takeOver.Start}

	// Panel a/c: RT-TTP timelines.
	res.Timeline = &Table{
		Title:   fmt.Sprintf("Fig 7.7a/c — RT-TTP of %s (%d tenants; take-over of %s at %v)", pick.ID, res.Members, victim, takeOver.Start),
		Columns: []string{"time", "RT-TTP (scaling disabled)", "RT-TTP (scaling enabled)"},
	}
	dis, en := runs[0].rep.Samples[pick.ID], runs[1].rep.Samples[pick.ID]
	for i := 0; i < len(dis) && i < len(en); i++ {
		if i%6 != 0 { // print every 6 hours
			continue
		}
		res.Timeline.AddRow(dis[i].At.String(),
			fmt.Sprintf("%.4f", dis[i].RTTTP), fmt.Sprintf("%.4f", en[i].RTTTP))
	}

	// Panel b/d: normalized query performance after the take-over.
	res.Perf = &Table{
		Title:   "Fig 7.7b/d — query performance after the take-over (normalized; 1.0 = isolated SLA)",
		Columns: []string{"run", "queries", "SLA attainment", "worst normalized", "mean normalized"},
	}
	for _, r := range runs {
		var n, missed int
		worst, sum := 0.0, 0.0
		for _, rec := range r.rep.Records {
			if rec.Submit < takeOver.Start {
				continue
			}
			n++
			v := rec.Normalized()
			sum += v
			if v > worst {
				worst = v
			}
			if !rec.SLAMet() {
				missed++
			}
		}
		att := 1.0
		if n > 0 {
			att = 1 - float64(missed)/float64(n)
		}
		res.Perf.AddRow("scaling "+r.name, n, pct(att),
			fmt.Sprintf("%.2f×", worst), fmt.Sprintf("%.3f×", sum/float64(max(n, 1))))
	}

	// Scaling events of the enabled run.
	res.Events = &Table{
		Title:   "Fig 7.7 — elastic scaling actions (enabled run)",
		Columns: []string{"detected", "RT-TTP", "over-active", "new MPPDB", "nodes", "ready", "err"},
	}
	for _, ev := range runs[1].rep.ScalingEvents {
		res.Events.AddRow(ev.Detected.String(), fmt.Sprintf("%.4f", ev.RTTTP),
			fmt.Sprint(ev.OverActive), ev.MPPDB, ev.Nodes, ev.Ready.String(), ev.Err)
	}
	return res, nil
}
