package replay

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/monitor"
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
	return newWorldMode(t, tenants, days, r, false)
}

func newWorldMode(t *testing.T, tenants, days int, r int, sharded bool) *world {
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
	eng := sim.NewEngine()
	pool := cluster.NewPool(10 * plan.NodesUsed())
	m := master.New(eng, pool, master.Options{Immediate: true, Sharded: sharded})
	byID := map[string]*tenant.Tenant{}
	for _, tn := range pop {
		byID[tn.ID] = tn
	}
	dep, err := m.Deploy(plan, byID)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, cat: cat, dep: dep, logs: logs, plan: plan}
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
		From:          0,
		To:            2 * sim.Day,
		EnableScaling: true,
		ScalerConfig:  scfg,
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

// canonicalRecords sorts a copy of recs by a total order on the observable
// fields, so record sets from differently ordered replays compare equal.
func canonicalRecords(recs []monitor.QueryRecord) []monitor.QueryRecord {
	out := append([]monitor.QueryRecord(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Finish != b.Finish {
			return a.Finish < b.Finish
		}
		if a.Class.ID != b.Class.ID {
			return a.Class.ID < b.Class.ID
		}
		return a.MPPDB < b.MPPDB
	})
	return out
}

func recordsEqual(a, b monitor.QueryRecord) bool {
	return a.Tenant == b.Tenant && a.Class.ID == b.Class.ID &&
		a.Submit == b.Submit && a.Finish == b.Finish &&
		a.SLATarget == b.SLATarget && a.MPPDB == b.MPPDB
}

func TestReplayParallelBasics(t *testing.T) {
	w := newWorldMode(t, 10, 2, 3, true)
	if !w.dep.Sharded() {
		t.Fatal("deployment not sharded")
	}
	rep, err := Run(nil, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day})
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
	if got := rep.SLAAttainment(); got < 0.97 {
		t.Errorf("SLA attainment = %.4f, want ≥ 0.97", got)
	}
	for _, g := range w.dep.Groups() {
		if len(rep.Samples[g.Plan.ID]) == 0 {
			t.Errorf("no samples for group %s", g.Plan.ID)
		}
	}
	// The merged record stream is globally ordered by submit time.
	for i := 1; i < len(rep.Records); i++ {
		if rep.Records[i].Submit < rep.Records[i-1].Submit {
			t.Fatalf("records not merged by submit time at %d", i)
		}
	}
}

// TestReplayParallelMatchesShared: without scaling or failures every group's
// trajectory is independent of the others, so the per-group clock domains
// must produce exactly the records the single shared engine does.
func TestReplayParallelMatchesShared(t *testing.T) {
	shared := newWorldMode(t, 10, 2, 3, false)
	sharded := newWorldMode(t, 10, 2, 3, true)
	opts := Options{From: 0, To: sim.Day}
	repShared, err := Run(shared.eng, shared.dep, shared.cat, shared.logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	repPar, err := Run(nil, sharded.dep, sharded.cat, sharded.logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if repShared.Submitted != repPar.Submitted {
		t.Fatalf("submitted: shared %d, parallel %d", repShared.Submitted, repPar.Submitted)
	}
	a := canonicalRecords(repShared.Records)
	b := canonicalRecords(repPar.Records)
	if len(a) != len(b) {
		t.Fatalf("records: shared %d, parallel %d", len(a), len(b))
	}
	for i := range a {
		if !recordsEqual(a[i], b[i]) {
			t.Fatalf("record %d differs:\n shared   %+v\n parallel %+v", i, a[i], b[i])
		}
	}
}

// TestReplayParallelDeterministic: two identical sharded worlds replayed
// concurrently yield the same merged record sequence, submit counts and
// samples — goroutine scheduling must not leak into results.
func TestReplayParallelDeterministic(t *testing.T) {
	run := func() (*Report, *master.Deployment) {
		w := newWorldMode(t, 8, 2, 2, true)
		rep, err := Run(nil, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day})
		if err != nil {
			t.Fatal(err)
		}
		return rep, w.dep
	}
	rep1, dep1 := run()
	rep2, dep2 := run()
	if rep1.Submitted != rep2.Submitted || rep1.SubmitErrors != rep2.SubmitErrors {
		t.Fatalf("counters differ: (%d,%d) vs (%d,%d)",
			rep1.Submitted, rep1.SubmitErrors, rep2.Submitted, rep2.SubmitErrors)
	}
	if len(rep1.Records) != len(rep2.Records) {
		t.Fatalf("records: %d vs %d", len(rep1.Records), len(rep2.Records))
	}
	// Merged order itself must be reproducible, not just the multiset.
	for i := range rep1.Records {
		if !recordsEqual(rep1.Records[i], rep2.Records[i]) {
			t.Fatalf("record %d differs:\n run1 %+v\n run2 %+v", i, rep1.Records[i], rep2.Records[i])
		}
	}
	for _, g := range dep1.Groups() {
		if len(rep1.Samples[g.Plan.ID]) != len(rep2.Samples[g.Plan.ID]) {
			t.Errorf("sample count differs for %s", g.Plan.ID)
		}
	}
	_ = dep2
}

// TestReplayModeValidation: Run dispatches on the deployment's layout — a
// sharded one needs no engine (and ignores one it is given), a shared one
// cannot run without its own — and validates the same way on both.
func TestReplayModeValidation(t *testing.T) {
	sharded := newWorldMode(t, 4, 1, 2, true)
	if _, err := Run(sharded.eng, sharded.dep, sharded.cat, sharded.logs,
		Options{From: 0, To: sim.Day}); err != nil {
		t.Errorf("sharded deployment with a spare engine: %v", err)
	}
	if sharded.eng.Steps() != 0 {
		t.Error("a sharded replay stepped the engine it was handed")
	}
	shared := newWorldMode(t, 4, 1, 2, false)
	if _, err := Run(nil, shared.dep, shared.cat, shared.logs,
		Options{From: 0, To: sim.Day}); err == nil {
		t.Error("shared deployment accepted without an engine")
	}
	sharded = newWorldMode(t, 4, 1, 2, true)
	if _, err := Run(nil, sharded.dep, sharded.cat, sharded.logs, Options{From: sim.Day, To: 0}); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := Run(nil, sharded.dep, sharded.cat, sharded.logs, Options{From: 0, To: sim.Day,
		TakeOver: &TakeOver{Tenant: "ghost", ClassID: "TPCH-Q1", Interval: time.Minute}}); err == nil {
		t.Error("take-over of undeployed tenant accepted")
	}
}

// TestReplayParallelFailureInjection: failures are partitioned to their
// group's domain; bad specs still surface as event errors in the merged
// report.
func TestReplayParallelFailureInjection(t *testing.T) {
	w := newWorldMode(t, 6, 2, 2, true)
	g := w.dep.Groups()[0]
	rep, err := Run(nil, w.dep, w.cat, w.logs, Options{
		From: 0,
		To:   sim.Day,
		Failures: []Failure{
			{At: 2 * sim.Hour, Group: g.Plan.ID, Instance: 0},
			{At: 3 * sim.Hour, Group: "TG-NOPE", Instance: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FailureEvents) != 2 {
		t.Fatalf("%d failure events", len(rep.FailureEvents))
	}
	var okEv, badEv *FailureEvent
	for i := range rep.FailureEvents {
		if rep.FailureEvents[i].Group == g.Plan.ID {
			okEv = &rep.FailureEvents[i]
		} else {
			badEv = &rep.FailureEvents[i]
		}
	}
	if okEv == nil || badEv == nil {
		t.Fatalf("events not partitioned: %+v", rep.FailureEvents)
	}
	if okEv.Err != "" {
		t.Fatalf("valid injection failed: %s", okEv.Err)
	}
	inst := g.Instances[0]
	share := inst.TenantDataGB() / float64(inst.Nodes())
	base := cluster.StartupTime(1) + cluster.LoadTime(share, 1, false)
	hb := recovery.DefaultConfig().HeartbeatInterval
	if got := okEv.RepairedAt.Sub(okEv.At); got < base || got > base+hb {
		t.Errorf("repair took %v, want within [%v, %v]", got, base, base+hb)
	}
	if len(rep.RecoveryEvents) == 0 {
		t.Error("no recovery lifecycles in merged report")
	}
	if badEv.Err == "" {
		t.Error("unknown group did not surface an error")
	}
}

// TestReplayRouteFollowsIndex moves the plane's tenant index under a replay's
// route cache: engine events mid-window unindex one tenant, move another onto
// a second group and detach a third group with its members still indexed.
// The cached run must submit exactly what a run whose hook resolves every
// arrival through Plane.ForTenantRef submits, and miss exactly the arrivals
// of tenants that were no longer indexed.
func TestReplayRouteFollowsIndex(t *testing.T) {
	opts := Options{From: 0, To: 2 * sim.Day}
	run := func(resolveEach bool) (*Report, uint64, int) {
		w := newWorld(t, 30, 3, 1)
		plane := w.dep.Plane()
		groups := w.dep.Groups()
		if len(groups) < 3 || len(groups[0].Members) < 2 {
			t.Fatalf("%d groups: the scenario needs three, the first with two members", len(groups))
		}
		src, dst, gone := groups[0], groups[1], groups[len(groups)-1]
		left, moved := src.Members[0], src.Members[1]
		var goneIDs []string
		for _, tn := range gone.Members {
			goneIDs = append(goneIDs, tn.ID)
		}

		times := map[string][]sim.Time{}
		s, err := workload.NewStream(nil, w.logs, opts.From, opts.To)
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := s.Next(); ok; a, ok = s.Next() {
			times[a.Tenant] = append(times[a.Tenant], a.At)
		}
		// Each change lands on an arrival of a tenant it reroutes whose
		// previous arrival, after the change before, filled the route cache:
		// a change that left the plane's generation alone would submit that
		// arrival through a stale slot. Changes are scheduled before the
		// replay attaches, so they fire before arrivals of their instant.
		next := func(ids []string, from sim.Time) sim.Time {
			at := sim.MaxTime
			for _, id := range ids {
				ts := times[id]
				for i := 1; i < len(ts); i++ {
					if ts[i-1] >= from && ts[i-1] < ts[i] {
						at = min(at, ts[i])
						break
					}
				}
			}
			if at == sim.MaxTime {
				t.Fatalf("%v have no two arrivals after %v", ids, from)
			}
			return at
		}
		unindexAt := next([]string{left.ID}, 0)
		moveAt := next([]string{moved.ID}, unindexAt)
		detachAt := next(goneIDs, moveAt)
		w.eng.Schedule(unindexAt, func(sim.Time) { plane.Unindex([]string{left.ID}) })
		w.eng.Schedule(moveAt, func(sim.Time) {
			for _, inst := range dst.Instances {
				inst.DeployTenant(moved.ID, moved.DataGB)
			}
			if err := dst.Router.AddTenant(moved); err != nil {
				t.Error(err)
			}
			plane.Index([]string{moved.ID}, dst)
		})
		w.eng.Schedule(detachAt, func(sim.Time) { plane.Detach(gone) })

		// The arrivals no index holds: the unindexed tenant's from its
		// instant on, the detached group's members' from theirs.
		misses := 0
		for id, ts := range times {
			cut := sim.MaxTime
			if id == left.ID {
				cut = unindexAt
			} else if slices.Contains(goneIDs, id) {
				cut = detachAt
			}
			for _, at := range ts {
				if at >= cut {
					misses++
				}
			}
		}

		o := opts
		if resolveEach {
			o.Submit = func(a workload.Arrival, _ *master.DeployedGroup, _ tenant.Ref) error {
				g, ref, ok := plane.ForTenantRef(a.Tenant)
				if !ok {
					return fmt.Errorf("tenant %s not indexed", a.Tenant)
				}
				_, err := g.Router.SubmitRef(ref, a.Class, a.SLATarget)
				return err
			}
		}
		rep, err := Run(w.eng, w.dep, w.cat, w.logs, o)
		if err != nil {
			t.Fatal(err)
		}
		movedOver := 0
		for _, r := range rep.Records {
			if r.Tenant == moved.ID && r.Submit >= moveAt && strings.HasPrefix(r.MPPDB, dst.Plan.ID) {
				movedOver++
			}
		}
		if movedOver == 0 {
			t.Errorf("no query of %s ran on %s after the move", moved.ID, dst.Plan.ID)
		}
		var buf bytes.Buffer
		if err := w.dep.Telemetry().Events.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return rep, h.Sum64(), misses
	}
	cached, cachedEvents, misses := run(false)
	each, eachEvents, _ := run(true)
	if misses == 0 {
		t.Fatal("no arrival falls after the index changes: the scenario tests nothing")
	}
	for _, rep := range []*Report{cached, each} {
		if rep.SubmitErrors != misses {
			t.Errorf("%d submit errors, want the %d arrivals of unindexed tenants", rep.SubmitErrors, misses)
		}
	}
	if cached.Submitted != each.Submitted || cached.SubmitErrors != each.SubmitErrors {
		t.Errorf("cached route submitted %d with %d errors, per-arrival lookup %d with %d",
			cached.Submitted, cached.SubmitErrors, each.Submitted, each.SubmitErrors)
	}
	if len(cached.Records) != len(each.Records) {
		t.Fatalf("records: cached route %d, per-arrival lookup %d", len(cached.Records), len(each.Records))
	}
	for i := range cached.Records {
		if !recordsEqual(cached.Records[i], each.Records[i]) {
			t.Fatalf("record %d differs:\n cached %+v\n each   %+v", i, cached.Records[i], each.Records[i])
		}
	}
	if cachedEvents != eachEvents {
		t.Errorf("event log hash %#x with the cached route, %#x with per-arrival lookups", cachedEvents, eachEvents)
	}
}
