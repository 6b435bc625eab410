package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// rig is one instrumented group: a 2-node instance holding 10 GB, its pool
// nodes acquired, an armed controller, and a telemetry hub.
type rig struct {
	eng    *sim.Engine
	pool   *cluster.Pool
	triage *Triage
	inst   *mppdb.Instance
	ctl    *Controller
	hub    *telemetry.Hub
}

func newRig(t *testing.T, poolSize int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	pool := cluster.NewPool(poolSize)
	inst := mppdb.New(eng, "g0-db0", 2)
	inst.DeployTenant("T0", 10)
	if _, err := pool.Acquire(inst.ID(), 2); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, pool: pool, triage: NewTriage(pool), inst: inst}
	r.ctl = newController(t, eng, pool, r.triage, inst)
	r.hub = r.ctl.tel
	return r
}

// noPriority ranks every triage claim zero.
func noPriority() (float64, int) { return 0, 0 }

// noQuarantine is the routing gate of a controller with no router.
func noQuarantine(string, bool) {}

// newController builds a controller for inst on a single-stream lifecycle,
// reporting into a hub of its own.
func newController(t *testing.T, eng *sim.Engine, pool *cluster.Pool, tri *Triage, inst *mppdb.Instance) *Controller {
	t.Helper()
	ctl, err := New(cluster.NewLifecycle(eng, pool, false, false), tri, telemetry.NewHub(eng, 0.999), "g0",
		[]*mppdb.Instance{inst}, noPriority, noQuarantine)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// crash fails one node at the instance and the pool and schedules its
// detection, like the replay injector.
func (r *rig) crash(t *testing.T, at sim.Time) {
	t.Helper()
	crash(t, r.eng, r.pool, r.inst, r.ctl, at)
}

// crash schedules a node failure of inst at at, at the instance and the
// pool, and its detection by ctl.
func crash(t *testing.T, eng *sim.Engine, pool *cluster.Pool, inst *mppdb.Instance, ctl *Controller, at sim.Time) {
	t.Helper()
	eng.Schedule(at, func(sim.Time) {
		if err := inst.FailNode(); err != nil {
			t.Errorf("FailNode: %v", err)
			return
		}
		if _, err := pool.FailAny(inst.ID()); err != nil {
			t.Errorf("FailAny: %v", err)
		}
		ctl.Detect()
	})
}

func countEvents(hub *telemetry.Hub, typ telemetry.EventType) int {
	n := 0
	for _, ev := range hub.Events.Recent(0) {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

func TestDetectAndRecover(t *testing.T) {
	r := newRig(t, 3) // one spare
	r.crash(t, 100*sim.Second)
	r.eng.Run(2 * sim.Day)

	evs := r.ctl.Events()
	if len(evs) != 1 {
		t.Fatalf("%d recovery events, want 1", len(evs))
	}
	ev := evs[0]
	// The heartbeat grid is 30 s; a crash at t=100 is noticed at t=120.
	if ev.Detected != 120*sim.Second {
		t.Errorf("Detected = %v, want 120s (next heartbeat)", ev.Detected)
	}
	if ev.Replaced != ev.Detected {
		t.Errorf("Replaced = %v, want immediate (pool has a spare)", ev.Replaced)
	}
	// Table 5.1: single-node startup + single-stream reload of this node's
	// data share (10 GB / 2 nodes).
	wantDelay := cluster.StartupTime(1) + cluster.LoadTime(5, 1, false)
	if got := ev.Completed - ev.Replaced; got != sim.Duration(wantDelay) {
		t.Errorf("reload took %v, want StartupTime(1)+LoadTime(5GB) = %v", got, wantDelay)
	}
	if ev.Attempts != 1 || ev.Triaged || ev.Err != "" {
		t.Errorf("lifecycle bookkeeping: %+v", ev)
	}
	if ev.FailedNode != 0 || ev.ReplacementNode != 2 {
		t.Errorf("node IDs: failed=%d replacement=%d, want 0 and 2", ev.FailedNode, ev.ReplacementNode)
	}
	if r.inst.FailedNodes() != 0 || r.inst.SpeedFactor() != 1.0 {
		t.Errorf("instance not restored: failed=%d speed=%v", r.inst.FailedNodes(), r.inst.SpeedFactor())
	}
	// The swapped-out node was re-imaged back into the free list; no node
	// leaked (2 active for the instance, 1 hibernated spare).
	if a, h, f, rp := r.pool.CountState(cluster.Active), r.pool.CountState(cluster.Hibernated),
		r.pool.CountState(cluster.Failed), r.pool.CountState(cluster.Repairing); a != 2 || h != 1 || f != 0 || rp != 0 {
		t.Errorf("pool leaked: active=%d hib=%d failed=%d repairing=%d", a, h, f, rp)
	}
	if r.ctl.InProgress() != 0 {
		t.Errorf("InProgress = %d after completion", r.ctl.InProgress())
	}
	// Telemetry: the full started→replaced→completed event trail and the
	// duration histogram.
	for _, typ := range []telemetry.EventType{
		telemetry.EventRecoveryStarted, telemetry.EventRecoveryReplaced, telemetry.EventRecoveryCompleted,
	} {
		if n := countEvents(r.hub, typ); n != 1 {
			t.Errorf("%d %s events, want 1", n, typ)
		}
	}
	if got := r.hub.Registry.Counter("thrifty_recovery_completed_total", "group", "g0").Value(); got != 1 {
		t.Errorf("completed counter = %d", got)
	}
	if got := r.hub.Registry.Histogram("thrifty_recovery_duration_seconds",
		nil, "group", "g0").Count(); got != 1 {
		t.Errorf("duration histogram count = %d", got)
	}
}

// TestRepeatCrashDuringRecovery: a second node of a 3-node instance fails
// while the first recovery is mid-reload; the sweep notices the extra failure
// and both lifecycles complete.
func TestRepeatCrashDuringRecovery(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(6)
	inst := mppdb.New(eng, "g0-db0", 3)
	inst.DeployTenant("T0", 12)
	if _, err := pool.Acquire(inst.ID(), 3); err != nil {
		t.Fatal(err)
	}
	ctl := newController(t, eng, pool, NewTriage(pool), inst)
	crash(t, eng, pool, inst, ctl, 100*sim.Second)
	crash(t, eng, pool, inst, ctl, 200*sim.Second) // first recovery still reloading (≫100 s)
	eng.Run(2 * sim.Day)

	evs := ctl.Events()
	if len(evs) != 2 {
		t.Fatalf("%d recovery events, want 2", len(evs))
	}
	for i, ev := range evs {
		if !ev.Recovered() {
			t.Errorf("event %d not recovered: %+v", i, ev)
		}
	}
	if evs[1].Detected != 210*sim.Second {
		t.Errorf("second detection at %v, want 210s", evs[1].Detected)
	}
	if inst.FailedNodes() != 0 {
		t.Errorf("instance left with %d failed nodes", inst.FailedNodes())
	}
	if a := pool.CountState(cluster.Active); a != 3 {
		t.Errorf("active nodes = %d, want 3", a)
	}
}

// TestPoolExhaustionQueuesInTriage: with no free node, the lifecycle queues
// a claim in the scarcity triage and keeps polling for days without
// recovering, panicking, or deadlocking the engine — Run simply returns at
// the bound with the recovery open and the instance serving degraded.
func TestPoolExhaustionQueuesInTriage(t *testing.T) {
	r := newRig(t, 2) // pool exactly covers the instance: no spare
	r.crash(t, 100*sim.Second)
	r.eng.Run(3 * sim.Day)

	evs := r.ctl.Events()
	if len(evs) != 1 {
		t.Fatalf("%d recovery events, want 1", len(evs))
	}
	if evs[0].Recovered() || !evs[0].Triaged || evs[0].Err == "" {
		t.Fatalf("exhausted lifecycle: %+v", evs[0])
	}
	if want := 3*sim.Day - 60*sim.Second; evs[0].NextAttemptAt <= want {
		t.Errorf("NextAttemptAt = %v, want the poll after %v", evs[0].NextAttemptAt, want)
	}
	if n := countEvents(r.hub, telemetry.EventTriageEnqueued); n != 1 {
		t.Errorf("%d triage_enqueued events, want 1", n)
	}
	if q := r.triage.Queued(); len(q) != 1 || q[0].Owner != r.inst.ID() || q[0].Polls < 3*24*60-3 {
		t.Errorf("triage queue after 3 days: %+v", q)
	}
	if r.ctl.InProgress() != 1 {
		t.Errorf("InProgress = %d, want 1 (still waiting for capacity)", r.ctl.InProgress())
	}
	// The degraded instance kept serving: SpeedFactor 0.5, not offline.
	if got := r.inst.SpeedFactor(); got != 0.5 {
		t.Errorf("degraded SpeedFactor = %v, want 0.5", got)
	}
}

// TestRecoveryAfterCapacityReturns: a queued claim is granted at the first
// triage poll after a hibernated node appears, and the recovery completes
// Table 5.1 later.
func TestRecoveryAfterCapacityReturns(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(3)
	inst := mppdb.New(eng, "g0-db0", 2)
	inst.DeployTenant("T0", 10)
	if _, err := pool.Acquire(inst.ID(), 2); err != nil {
		t.Fatal(err)
	}
	// A second owner keeps the spare busy initially.
	if _, err := pool.Acquire("hog", 1); err != nil {
		t.Fatal(err)
	}
	ctl := newController(t, eng, pool, NewTriage(pool), inst)
	crash(t, eng, pool, inst, ctl, 100*sim.Second)
	// The hog releases its node long after the claim queued.
	const release = 30*sim.Minute + 30*sim.Second
	eng.Schedule(release, func(sim.Time) { pool.Release("hog") })
	eng.Run(2 * sim.Day)

	evs := ctl.Events()
	if len(evs) != 1 || !evs[0].Recovered() || !evs[0].Triaged {
		t.Fatalf("recovery did not complete through the triage: %+v", evs)
	}
	ev := evs[0]
	if ev.Replaced < release || ev.Replaced > release+sim.Time(triageInterval) {
		t.Errorf("granted at %v, want within one triage poll of the release at %v", ev.Replaced, release)
	}
	if want := cluster.StartupTime(1) + cluster.LoadTime(5, 1, false); ev.Completed-ev.Replaced != sim.Duration(want) {
		t.Errorf("reload took %v, want Table 5.1's %v", ev.Completed-ev.Replaced, want)
	}
	if ev.Err != "" {
		t.Errorf("Err not cleared on success: %q", ev.Err)
	}
	if inst.FailedNodes() != 0 {
		t.Errorf("instance left degraded")
	}
	if f, rp := pool.CountState(cluster.Failed), pool.CountState(cluster.Repairing); f != 0 || rp != 0 {
		t.Errorf("pool left failed=%d repairing=%d", f, rp)
	}
}

// TestInstanceOnlyFailureFallsBackToAcquire: a failure injected at the
// instance alone (no pool-side Failed record) recovers via a plain acquire.
func TestInstanceOnlyFailureFallsBackToAcquire(t *testing.T) {
	r := newRig(t, 3)
	r.eng.Schedule(50*sim.Second, func(sim.Time) {
		if err := r.inst.FailNode(); err != nil {
			t.Errorf("FailNode: %v", err)
		}
		r.ctl.Detect()
	})
	r.eng.Run(sim.Day)
	evs := r.ctl.Events()
	if len(evs) != 1 || !evs[0].Recovered() {
		t.Fatalf("recovery events: %+v", evs)
	}
	if evs[0].FailedNode != -1 {
		t.Errorf("FailedNode = %d, want -1 (no pool record)", evs[0].FailedNode)
	}
	if evs[0].ReplacementNode != 2 {
		t.Errorf("ReplacementNode = %d, want 2", evs[0].ReplacementNode)
	}
}

// TestNotifySkipsDetectionLatency: a push notification recovers without
// waiting for the next heartbeat instant.
func TestNotifySkipsDetectionLatency(t *testing.T) {
	r := newRig(t, 3)
	r.eng.Schedule(100*sim.Second, func(sim.Time) {
		if err := r.inst.FailNode(); err != nil {
			t.Errorf("FailNode: %v", err)
			return
		}
		r.ctl.Notify()
		r.ctl.Detect()
	})
	r.eng.Run(sim.Day)
	evs := r.ctl.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Detected != 100*sim.Second {
		t.Errorf("Detected = %v, want 100s (pushed)", evs[0].Detected)
	}
	// The next heartbeat must not double-start a lifecycle for the same
	// failure.
	if r.ctl.InProgress() != 0 || len(r.ctl.Events()) != 1 {
		t.Error("heartbeat double-counted a notified failure")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(2)
	lc := cluster.NewLifecycle(eng, pool, false, false)
	tri := NewTriage(pool)
	hub := telemetry.NewHub(eng, 0.999)
	insts := []*mppdb.Instance{mppdb.New(eng, "x", 2)}
	if _, err := New(nil, tri, hub, "g", insts, noPriority, noQuarantine); err == nil {
		t.Error("nil lifecycle accepted")
	}
	if _, err := New(lc, nil, hub, "g", insts, noPriority, noQuarantine); err == nil {
		t.Error("nil triage accepted")
	}
	if _, err := New(lc, tri, nil, "g", insts, noPriority, noQuarantine); err == nil {
		t.Error("nil hub accepted")
	}
	if _, err := New(lc, tri, hub, "g", nil, noPriority, noQuarantine); err == nil {
		t.Error("no instances accepted")
	}
	if _, err := New(lc, tri, hub, "g", insts, nil, noQuarantine); err == nil {
		t.Error("nil priority accepted")
	}
	if _, err := New(lc, tri, hub, "g", insts, noPriority, nil); err == nil {
		t.Error("nil quarantine accepted")
	}
	ctl, err := New(lc, tri, hub, "g", insts, noPriority, noQuarantine)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("an armed fault-free controller scheduled %d events, want 0", n)
	}
	ctl.Detect()
	ctl.Detect() // one beat covers both
	if at, ok := eng.NextAt(); eng.Pending() != 1 || !ok || at != sim.Duration(HeartbeatInterval) {
		t.Errorf("two Detects queued %d beats (first at %v), want 1 at 30s", eng.Pending(), at)
	}
}

// TestRespreadAbortReimagesFailedStaging: a group collapsed onto one of two
// domains re-spreads a replica; a staged node fails mid-load, so the move is
// aborted — the failed node is re-imaged, not hibernated at once — and a
// later beat re-spreads successfully.
func TestRespreadAbortReimagesFailedStaging(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPoolDomains(8, 2)
	var insts []*mppdb.Instance
	for _, id := range []string{"g0-db0", "g0-db1"} {
		inst := mppdb.New(eng, id, 2)
		inst.DeployTenant("T0", 10)
		if _, err := pool.Acquire(id, 2); err != nil { // both in domain 0
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	ctl, err := New(cluster.NewLifecycle(eng, pool, false, true), NewTriage(pool), telemetry.NewHub(eng, 0.999),
		"g0", insts, noPriority, noQuarantine)
	if err != nil {
		t.Fatal(err)
	}
	// The group is armed collapsed, so the first beat (30 s) stages
	// g0-db1's move onto domain 1.
	eng.Schedule(100*sim.Second, func(sim.Time) {
		if _, err := pool.FailAny("g0-db1/respread"); err != nil {
			t.Errorf("failing a staged node: %v", err)
		}
	})
	abortAt := 30*sim.Second + sim.Time(cluster.ProvisionTime(2, 10, false))
	eng.Run(abortAt)
	if ctl.Respreads() != 0 || pool.CountState(cluster.Repairing) != 1 || pool.FailedCount("g0-db1/respread") != 0 {
		t.Fatalf("after the abort: respreads %d, pool %+v", ctl.Respreads(), pool.Snapshot().ByState)
	}
	eng.Run(sim.Day)
	if ctl.Respreads() != 1 || pool.CountState(cluster.Repairing) != 0 || pool.CountState(cluster.Active) != 4 {
		t.Fatalf("re-spread did not recover: respreads %d, pool %+v", ctl.Respreads(), pool.Snapshot().ByState)
	}
	if doms := pool.OwnerDomains("g0-db1"); len(doms) != 1 || doms[0] != 1 {
		t.Errorf("g0-db1 in domains %v, want [1]", doms)
	}
}
