package replay

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// world builds a small consolidated deployment plus its logs.
type world struct {
	eng  *sim.Engine
	cat  *queries.Catalog
	dep  *master.Deployment
	logs []*workload.TenantLog
	plan *advisor.Plan
}

func newWorld(t *testing.T, tenants, days int, r int) *world {
	t.Helper()
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, []int{2}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pop, err := tenant.Population(rng, tenants, 0.8, []int{2}, tenant.ZoneOffsets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultComposeConfig(3)
	cfg.Days = days
	cfg.Holidays = 0 // short horizons would otherwise be all holiday
	logs, err := workload.Compose(lib, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := advisor.DefaultConfig()
	acfg.R = r
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, cfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewPool(10 * plan.NodesUsed())
	m := master.New(pool, master.Options{Immediate: true})
	byID := map[string]*tenant.Tenant{}
	for _, tn := range pop {
		byID[tn.ID] = tn
	}
	dep, err := m.Deploy(plan, byID)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: sim.NewEngine(), cat: cat, dep: dep, logs: logs, plan: plan}
}

func TestReplayBasics(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted == 0 {
		t.Fatal("nothing replayed")
	}
	if rep.SubmitErrors != 0 {
		t.Errorf("%d submit errors", rep.SubmitErrors)
	}
	if len(rep.Records) == 0 {
		t.Fatal("no completed queries")
	}
	// Guarantee 1 at work: with R=3 and a plan respecting P, nearly every
	// query meets its SLA. The guarantee is over *time* (TTP ≥ P); per-query
	// attainment runs a little lower because >R-active windows are exactly
	// the busiest ones.
	if got := rep.SLAAttainment(); got < 0.97 {
		t.Errorf("SLA attainment = %.4f, want ≥ 0.97", got)
	}
	// Samples for every group.
	for _, g := range w.dep.Groups() {
		if len(rep.Samples[g.Plan.ID]) == 0 {
			t.Errorf("no samples for group %s", g.Plan.ID)
		}
	}
	if rep.MinRTTTP(w.dep.Groups()[0].Plan.ID) < 0 {
		t.Error("MinRTTTP negative")
	}
}

func TestReplayValidation(t *testing.T) {
	w := newWorld(t, 4, 1, 2)
	if _, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: sim.Day, To: 0}); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day,
		TakeOver: &TakeOver{Tenant: "ghost", ClassID: "TPCH-Q1", Interval: time.Minute}}); err == nil {
		t.Error("take-over of undeployed tenant accepted")
	}
	if _, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day,
		TakeOver: &TakeOver{Tenant: w.logs[0].Tenant.ID, ClassID: "NOPE", Interval: time.Minute}}); err == nil {
		t.Error("take-over with unknown class accepted")
	}
}

// TestReplayTakeOverTriggersScaling is the §7.5 mechanism at miniature
// scale: hammering one tenant drives its group's RT-TTP below P; the scaler
// carves it out; RT-TTP recovers.
func TestReplayTakeOverTriggersScaling(t *testing.T) {
	w := newWorld(t, 30, 3, 1) // R=1 so a single overlap already violates
	// P is looser than the plan's 99.9% so that violations must accumulate
	// before detection — by then the hammered tenant's observed activity
	// dwarfs its groupmates' and identification singles it out (the paper's
	// 24 h window achieves the same separation at full scale).
	scfg := scaling.Config{
		P:             0.995,
		R:             1,
		CheckInterval: 10 * time.Minute,
		Window:        6 * time.Hour,
		Epoch:         10 * sim.Second,
		ParallelLoad:  true,
	}
	// The take-over only hurts if the victim shares a group: a hammered
	// singleton never exceeds R=1 active tenants.
	victim := ""
	for _, g := range w.dep.Groups() {
		if len(g.Plan.TenantIDs) >= 2 {
			victim = g.Plan.TenantIDs[0]
			break
		}
	}
	if victim == "" {
		t.Fatal("no multi-member group in the plan")
	}
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{
		From:    0,
		To:      2 * sim.Day,
		Scaling: &scfg,
		TakeOver: &TakeOver{
			Tenant:   victim,
			Start:    sim.Hour,
			Interval: 2 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ScalingEvents) == 0 {
		g, _ := w.dep.GroupFor(victim)
		t.Fatalf("no scaling events; min RT-TTP of %s = %v",
			g.Plan.ID, rep.MinRTTTP(g.Plan.ID))
	}
	ev := rep.ScalingEvents[0]
	if ev.Err != "" {
		t.Fatalf("scaling failed: %s", ev.Err)
	}
	found := false
	for _, id := range ev.OverActive {
		if id == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("victim %s not identified; over-active = %v", victim, ev.OverActive)
	}
	// The group's RT-TTP dipped below P at some point.
	g, _ := w.dep.GroupFor(victim)
	if min := rep.MinRTTTP(g.Plan.ID); min >= scfg.P {
		t.Errorf("RT-TTP never dipped: min %v", min)
	}
}

// TestReplayFailureInjection: a node failure degrades the instance, the
// group's recovery controller detects it on a heartbeat and restores it
// (§4.4, Table 5.1), and bad specs surface as event errors.
func TestReplayFailureInjection(t *testing.T) {
	w := newWorld(t, 6, 2, 2)
	g := w.dep.Groups()[0]
	activeBefore := w.dep.Pool().CountState(cluster.Active)
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{
		From: 0,
		To:   sim.Day,
		Failures: []Failure{
			{At: 2 * sim.Hour, Group: g.Plan.ID, Instance: 0},
			{At: 3 * sim.Hour, Group: "TG-NOPE", Instance: 0},
			{At: 4 * sim.Hour, Group: g.Plan.ID, Instance: 99},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FailureEvents) != 3 {
		t.Fatalf("%d failure events", len(rep.FailureEvents))
	}
	ok := rep.FailureEvents[0]
	if ok.Err != "" {
		t.Fatalf("valid injection failed: %s", ok.Err)
	}
	inst := g.Instances[0]
	if ok.MPPDB != inst.ID() || ok.Node < 0 {
		t.Errorf("injection recorded MPPDB %q node %d", ok.MPPDB, ok.Node)
	}
	// Autonomous repair: detection within one heartbeat, then single-node
	// startup plus the Table 5.1 reload of the node's data share.
	share := inst.TenantDataGB() / float64(inst.Nodes())
	base := cluster.StartupTime(1) + cluster.LoadTime(share, 1, false)
	hb := recovery.DefaultConfig().HeartbeatInterval
	if got := ok.RepairedAt.Sub(ok.At); got < base || got > base+hb {
		t.Errorf("repair took %v, want within [%v, %v]", got, base, base+hb)
	}
	if inst.FailedNodes() != 0 || inst.SpeedFactor() != 1.0 {
		t.Error("instance still degraded after repair")
	}
	// One recovery lifecycle, detected after the failure, on the heartbeat.
	var rec *recovery.Event
	for i := range rep.RecoveryEvents {
		if rep.RecoveryEvents[i].MPPDB == inst.ID() {
			rec = &rep.RecoveryEvents[i]
		}
	}
	if rec == nil {
		t.Fatal("no recovery lifecycle recorded")
	}
	if !rec.Recovered() || rec.Detected < ok.At || rec.Detected > ok.At.Add(hb) {
		t.Errorf("recovery lifecycle %+v not detected within a heartbeat of %v", rec, ok.At)
	}
	if rec.FailedNode != ok.Node {
		t.Errorf("controller swapped node %d, injector failed %d", rec.FailedNode, ok.Node)
	}
	// The swapped-out node re-imaged during the drain: no leaks, full pool.
	if n := w.dep.Pool().CountState(cluster.Failed) + w.dep.Pool().CountState(cluster.Repairing); n != 0 {
		t.Errorf("%d nodes stuck failed/repairing", n)
	}
	if got := w.dep.Pool().CountState(cluster.Active); got != activeBefore {
		t.Errorf("active nodes %d, want %d", got, activeBefore)
	}
	if rep.FailureEvents[1].Err == "" || rep.FailureEvents[2].Err == "" {
		t.Error("bad failure specs did not surface errors")
	}
}

// TestReplayParallelBasics: every group's share runs on its own engine, and
// the report's records come back in deployment group order, each group's in
// completion order — the order Plane.Records keeps.
func TestReplayParallelBasics(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted == 0 || rep.SubmitErrors != 0 || len(rep.Records) != rep.Submitted {
		t.Fatalf("%d submitted, %d errors, %d completed", rep.Submitted, rep.SubmitErrors, len(rep.Records))
	}
	if w.eng.Steps() != 0 {
		t.Errorf("the idle coordinator stepped %d events", w.eng.Steps())
	}
	group := map[string]int{}
	for gi, g := range w.dep.Groups() {
		for _, id := range g.Plan.TenantIDs {
			group[id] = gi
		}
		g.Domain().Do(func(e *sim.Engine) {
			if e.Steps() == 0 || e.Now() != sim.Day+sim.Day {
				t.Errorf("group %s: %d steps, clock %v", g.Plan.ID, e.Steps(), e.Now())
			}
		})
	}
	for i := 1; i < len(rep.Records); i++ {
		a, b := rep.Records[i-1], rep.Records[i]
		if ga, gb := group[a.Tenant], group[b.Tenant]; ga > gb || ga == gb && a.Finish > b.Finish {
			t.Fatalf("record %d (%s, finish %v) after %s, finish %v", i, b.Tenant, b.Finish, a.Tenant, a.Finish)
		}
	}
}

// TestReplayParallelDeterministic: two identical worlds replayed one after
// the other yield the same records in the same order, the same samples and
// the same step counts.
func TestReplayParallelDeterministic(t *testing.T) {
	opts := Options{From: 0, To: sim.Day}
	if a, b := run(t, newWorld(t, 8, 2, 2), opts), run(t, newWorld(t, 8, 2, 2), opts); a != b {
		t.Errorf("same-seed replays differ:\n %v\n %v", a, b)
	}
}

// TestReplayModeValidation: Run needs no coordinator — nil replays exactly
// what an idle one does — and rejects a coordinator or group engine already
// past the window's start.
func TestReplayModeValidation(t *testing.T) {
	opts := Options{From: 0, To: sim.Day}
	w := newWorld(t, 4, 1, 2)
	rep, err := Run(nil, w.dep, w.cat, w.logs, opts)
	if err != nil {
		t.Fatalf("no coordinator: %v", err)
	}
	if a, b := condense(rep, w.dep, w.eng), run(t, newWorld(t, 4, 1, 2), opts); a != b {
		t.Errorf("without a coordinator %v, with an idle one %v", a, b)
	}
	if _, err := Run(nil, w.dep, w.cat, w.logs, opts); err == nil {
		t.Error("groups past the window start accepted")
	}
	w = newWorld(t, 4, 1, 2)
	w.eng.Run(sim.Hour)
	if _, err := Run(w.eng, w.dep, w.cat, w.logs, opts); err == nil {
		t.Error("coordinator past the window start accepted")
	}
}

// TestReplayParallelFailureInjection: failures at one instant in two groups
// are each injected and repaired on their own group's engine, and the
// recovery lifecycles come back in deployment group order.
func TestReplayParallelFailureInjection(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	groups := w.dep.Groups()
	if len(groups) < 2 {
		t.Fatalf("%d groups planned, need 2", len(groups))
	}
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day, Failures: []Failure{
		{At: 2 * sim.Hour, Group: groups[1].Plan.ID, Instance: 0},
		{At: 2 * sim.Hour, Group: groups[0].Plan.ID, Instance: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*master.DeployedGroup{groups[1], groups[0]} {
		if ev := rep.FailureEvents[i]; ev.Err != "" || ev.MPPDB != g.Instances[0].ID() || ev.RepairedAt <= ev.At {
			t.Errorf("failure %d not injected and repaired: %+v", i, ev)
		}
	}
	if len(rep.RecoveryEvents) != 2 || rep.RecoveryEvents[0].MPPDB != groups[0].Instances[0].ID() {
		t.Errorf("recovery lifecycles %+v, want %s's first", rep.RecoveryEvents, groups[0].Plan.ID)
	}
}
