package replay_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// world is a small consolidated deployment plus its logs.
type world struct {
	eng  *sim.Engine
	cat  *queries.Catalog
	dep  *master.Deployment
	logs []*workload.TenantLog
	plan *advisor.Plan
}

// newWorld deploys 2-node tenants on a single-domain pool.
func newWorld(t *testing.T, tenants, days int, r int) *world {
	t.Helper()
	return newWorldOn(t, tenants, days, r, 2, 1)
}

// newWorldOn deploys tenants of the given node count on a pool split into
// domains failure domains.
func newWorldOn(t *testing.T, tenants, days, r, nodes, domains int) *world {
	t.Helper()
	acfg := advisor.DefaultConfig()
	acfg.R = r
	return newWorldWith(t, tenants, days, nodes, domains, acfg, master.Options{Immediate: true})
}

// newWorldWith plans tenants of the given node count under acfg and deploys
// them with opts on a pool split into domains failure domains.
func newWorldWith(t *testing.T, tenants, days, nodes, domains int, acfg advisor.Config, opts master.Options) *world {
	t.Helper()
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, []int{nodes}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pop, err := tenant.Population(rng, tenants, 0.8, []int{nodes}, tenant.ZoneOffsets)
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
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, cfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewPoolDomains(10*plan.NodesUsed(), domains)
	m := master.New(pool, opts)
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

// faultRun replays the world's logs over [0, to) under the faults, through
// the fault harness, which schedules them before it calls replay.Run.
func faultRun(t *testing.T, w *world, win chaos.Window, faults ...chaos.Fault) *chaos.Result {
	t.Helper()
	res, err := chaos.Run(w.eng, w.dep, w.cat, w.logs, chaos.Config{Window: win, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplayBasics(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	rep, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day})
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
	if _, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: sim.Day, To: 0}); err == nil {
		t.Error("inverted window accepted")
	}
}

// TestReplayTakeOverTriggersScaling is the §7.5 mechanism at miniature
// scale: hammering one tenant drives its group's RT-TTP below P; the scaler
// carves it out; RT-TTP recovers.
func TestReplayTakeOverTriggersScaling(t *testing.T) {
	// R=1 so a single overlap already violates. P is looser than the
	// default 99.9% so that violations must accumulate before detection — by
	// then the hammered tenant's observed activity dwarfs its groupmates' and
	// identification singles it out (the paper's 24 h window achieves the
	// same separation at full scale).
	acfg := advisor.DefaultConfig()
	acfg.R, acfg.P, acfg.Epoch = 1, 0.995, 10*sim.Second
	w := newWorldWith(t, 30, 3, 2, 1, acfg, master.Options{Immediate: true, MonitorWindow: 6 * time.Hour, Scaling: true})
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
	rep := faultRun(t, w, chaos.Window{To: 2 * sim.Day}, chaos.TakeOver{
		Tenant:   victim,
		Start:    sim.Hour,
		Interval: 2 * time.Second,
	}).Report
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
	if min := rep.MinRTTTP(g.Plan.ID); min >= acfg.P {
		t.Errorf("RT-TTP never dipped: min %v", min)
	}
}

// TestReplayFailureInjection: a node crash degrades the instance, the
// group's recovery controller detects it on a heartbeat and restores it
// (§4.4, Table 5.1).
func TestReplayFailureInjection(t *testing.T) {
	w := newWorld(t, 6, 2, 2)
	g := w.dep.Groups()[0]
	activeBefore := w.dep.Pool().CountState(cluster.Active)
	at := 2 * sim.Hour
	res := faultRun(t, w, chaos.Window{To: sim.Day},
		chaos.Crashes{Schedule: []chaos.Crash{{At: at, Group: g.Plan.ID, Instance: 0}}})
	if res.Applied != 1 {
		t.Fatalf("%d crashes applied, want 1", res.Applied)
	}
	inst := g.Instances[0]
	if inst.FailedNodes() != 0 || inst.SpeedFactor() != 1.0 {
		t.Error("instance still degraded after repair")
	}
	// One recovery lifecycle, detected after the crash, on the heartbeat.
	rep := res.Report
	var rec *recovery.Event
	for i := range rep.RecoveryEvents {
		if rep.RecoveryEvents[i].MPPDB == inst.ID() {
			rec = &rep.RecoveryEvents[i]
		}
	}
	if rec == nil {
		t.Fatal("no recovery lifecycle recorded")
	}
	hb := recovery.HeartbeatInterval
	if !rec.Recovered() || rec.Detected < at || rec.Detected > at.Add(hb) {
		t.Errorf("recovery lifecycle %+v not detected within a heartbeat of %v", rec, at)
	}
	// Autonomous repair: detection within one heartbeat, then single-node
	// startup plus the Table 5.1 reload of the node's data share.
	share := inst.TenantDataGB() / float64(inst.Nodes())
	base := cluster.StartupTime(1) + cluster.LoadTime(share, 1, false)
	if got := rec.Completed.Sub(at); got < base || got > base+hb {
		t.Errorf("repair took %v, want within [%v, %v]", got, base, base+hb)
	}
	if rec.FailedNode < 0 || rec.FailedNode != res.CrashNodes[0] {
		t.Errorf("controller swapped node %d, the crash failed %d", rec.FailedNode, res.CrashNodes[0])
	}
	// The swapped-out node re-imaged during the drain: no leaks, full pool.
	if n := w.dep.Pool().CountState(cluster.Failed) + w.dep.Pool().CountState(cluster.Repairing); n != 0 {
		t.Errorf("%d nodes stuck failed/repairing", n)
	}
	if got := w.dep.Pool().CountState(cluster.Active); got != activeBefore {
		t.Errorf("active nodes %d, want %d", got, activeBefore)
	}
}

// TestReplayParallelBasics: every group's share runs on its own engine, and
// the report's records come back in deployment group order, each group's in
// completion order — the order Plane.Records keeps.
func TestReplayParallelBasics(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	rep, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day})
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
	opts := replay.Options{From: 0, To: sim.Day}
	if a, b := run(t, newWorld(t, 8, 2, 2), opts), run(t, newWorld(t, 8, 2, 2), opts); a != b {
		t.Errorf("same-seed replays differ:\n %v\n %v", a, b)
	}
}

// TestReplayModeValidation: Run needs no coordinator — nil replays exactly
// what an idle one does — and rejects a coordinator or group engine already
// past the window's start.
func TestReplayModeValidation(t *testing.T) {
	opts := replay.Options{From: 0, To: sim.Day}
	w := newWorld(t, 4, 1, 2)
	rep, err := replay.Run(nil, w.dep, w.cat, w.logs, opts)
	if err != nil {
		t.Fatalf("no coordinator: %v", err)
	}
	if a, b := condense(rep, w.dep, w.eng), run(t, newWorld(t, 4, 1, 2), opts); a != b {
		t.Errorf("without a coordinator %v, with an idle one %v", a, b)
	}
	if _, err := replay.Run(nil, w.dep, w.cat, w.logs, opts); err == nil {
		t.Error("groups past the window start accepted")
	}
	w = newWorld(t, 4, 1, 2)
	w.eng.Run(sim.Hour)
	if _, err := replay.Run(w.eng, w.dep, w.cat, w.logs, opts); err == nil {
		t.Error("coordinator past the window start accepted")
	}
}

// TestReplayParallelFailureInjection: crashes at one instant in two groups
// are each injected and repaired on their own group's engine, and the
// recovery lifecycles come back in deployment group order.
func TestReplayParallelFailureInjection(t *testing.T) {
	w := newWorld(t, 10, 2, 3)
	groups := w.dep.Groups()
	if len(groups) < 2 {
		t.Fatalf("%d groups planned, need 2", len(groups))
	}
	res := faultRun(t, w, chaos.Window{To: sim.Day}, chaos.Crashes{Schedule: []chaos.Crash{
		{At: 2 * sim.Hour, Group: groups[1].Plan.ID, Instance: 0},
		{At: 2 * sim.Hour, Group: groups[0].Plan.ID, Instance: 0},
	}})
	evs := res.Report.RecoveryEvents
	if res.Applied != 2 || len(evs) != 2 {
		t.Fatalf("%d crashes applied, recovery lifecycles %+v, want 2", res.Applied, evs)
	}
	for i, g := range groups[:2] {
		if ev := evs[i]; ev.MPPDB != g.Instances[0].ID() || !ev.Recovered() || ev.Detected < 2*sim.Hour {
			t.Errorf("lifecycle %d %+v, want %s's G₀ detected and recovered", i, ev, g.Plan.ID)
		}
	}
}

// TestReplayRecordsSized: the report's records are the deployment's, in a
// slice sized before the drive to what the window can complete — the records
// already logged plus one per arrival — or, when the drive completes more,
// grown once to the exact count; either way no slot is left over.
func TestReplayRecordsSized(t *testing.T) {
	same := func(name string, got []monitor.QueryRecord, dep *master.Deployment) {
		t.Helper()
		if want := dep.Records(); !slices.Equal(got, want) {
			t.Errorf("%s: %d records differ from the deployment's %d", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d records in a slice of %d", name, len(got), cap(got))
		}
	}

	// (a) A bare replay completes exactly what it submitted.
	w := newWorld(t, 10, 3, 3)
	first, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if first.Submitted == 0 || first.SubmitErrors != 0 || len(first.Records) != first.Submitted {
		t.Fatalf("%d submitted, %d errors, %d completed", first.Submitted, first.SubmitErrors, len(first.Records))
	}
	same("bare", first.Records, w.dep)

	// (b) A second window on the same deployment: the first window's records,
	// then its own. The first drained before the second starts, so its
	// records are the ones submitted before it.
	second, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 2 * sim.Day, To: 3 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	same("second window", second.Records, w.dep)
	earlier := slices.DeleteFunc(slices.Clone(second.Records), func(r monitor.QueryRecord) bool { return r.Submit >= 2*sim.Day })
	if !slices.Equal(earlier, first.Records) || len(second.Records)-len(earlier) != second.Submitted {
		t.Errorf("second window: %d earlier records (first window %d), %d own of %d submitted",
			len(earlier), len(first.Records), len(second.Records)-len(earlier), second.Submitted)
	}

	// (d) AppendRecords keeps dst's prefix: grown to the exact count when dst
	// lacks the room, filled in place when it has it.
	head := second.Records[len(second.Records)-1]
	got := w.dep.Plane().AppendRecords([]monitor.QueryRecord{head})
	if got[0] != head {
		t.Errorf("prefix %+v became %+v", head, got[0])
	}
	same("appended", got[1:], w.dep)
	roomy := make([]monitor.QueryRecord, 1, 1+len(second.Records))
	if got := w.dep.Plane().AppendRecords(roomy); &got[0] != &roomy[0] || len(got) != cap(roomy) {
		t.Errorf("a dst with room for %d was not filled in place", len(second.Records))
	}

	// (c) A storm's coordinator submits more than the members' streams hold:
	// the fill grows the slice once, to the exact count.
	w = newWorld(t, 10, 1, 3)
	res := faultRun(t, w, chaos.Window{To: sim.Day}, chaos.Storm{Aggressors: 1})
	rep := res.Report
	if res.StormAdmitted == 0 || len(rep.Records) <= rep.Submitted {
		t.Fatalf("%d storm submits admitted, %d records of %d replayed arrivals", res.StormAdmitted, len(rep.Records), rep.Submitted)
	}
	same("storm", rep.Records, w.dep)
}
