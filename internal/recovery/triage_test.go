package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestTriagePriorityOrdering(t *testing.T) {
	tr := NewTriage(cluster.NewPool(4))
	tr.Enqueue("k1", "g1", "g1/0", 0.05, 2)  // priority 0.10
	tr.Enqueue("k2", "g2", "g2/0", 0.02, 10) // priority 0.20
	tr.Enqueue("k3", "g3", "g3/0", 0.10, 1)  // priority 0.10, fewer tenants than k1
	tr.Enqueue("k4", "g0", "g0/0", 0, 50)    // guarantee holds: priority 0
	q := tr.Queued()
	got := make([]string, len(q))
	for i, c := range q {
		got[i] = c.Group
	}
	want := []string{"g2", "g1", "g3", "g0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank order %v, want %v", got, want)
		}
	}
	if q[0].Priority != 0.2 || q[0].Polls != 0 {
		t.Fatalf("head claim: %+v", q[0])
	}
	// Re-enqueueing refreshes, never double-counts.
	if tr.Enqueue("k2", "g2", "g2/0", 0.5, 10) {
		t.Fatalf("refresh reported as a new claim")
	}
	if enq, _ := tr.Stats(); enq != 4 {
		t.Fatalf("enqueued=%d after refresh, want 4", enq)
	}
	if tr.Queued()[0].Deficit != 0.5 {
		t.Fatalf("refresh did not update the deficit")
	}
}

func TestTriageGrantBudget(t *testing.T) {
	// Pool with exactly one free node and two claimants: only the worst-off
	// claim fits the budget; the other keeps polling.
	pool := cluster.NewPool(3)
	if _, err := pool.Acquire("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire("b", 1); err != nil {
		t.Fatal(err)
	}
	tr := NewTriage(pool)
	lc := cluster.NewLifecycle(sim.NewEngine(), pool, false, false)
	tr.Enqueue("a", "ga", "a", 0.01, 1)
	tr.Enqueue("b", "gb", "b", 0.50, 4)
	if ok := tr.TryGrant("a", 0.01, 1, swapFor(lc, "a", nil)); ok {
		t.Fatalf("rank-1 claim granted with a budget of 1")
	}
	var sw swapped
	if ok := tr.TryGrant("b", 0.50, 4, swapFor(lc, "b", &sw)); !ok || sw.repl < 0 || sw.failed != -1 {
		t.Fatalf("worst-off claim denied: %+v ok=%v", sw, ok)
	}
	if got := pool.ActiveNodesOf("b"); len(got) != 2 {
		t.Fatalf("grant did not acquire for b: %v", got)
	}
	// The pool is now empty; the survivor stays queued no matter its rank.
	if ok := tr.TryGrant("a", 9.0, 9, swapFor(lc, "a", nil)); ok {
		t.Fatalf("grant from an empty pool")
	}
	if q := tr.Queued(); len(q) != 1 || q[0].Polls != 2 {
		t.Fatalf("queue after grants: %+v", q)
	}
	if enq, granted := tr.Stats(); enq != 2 || granted != 1 {
		t.Fatalf("stats: enqueued=%d granted=%d", enq, granted)
	}
}

func TestTriageGrantSwapsFailedNode(t *testing.T) {
	// When the pool holds a Failed record for the owner, a grant is a swap:
	// the lifecycle replaces the oldest casualty and schedules its re-image.
	pool := cluster.NewPool(3)
	if _, err := pool.Acquire("a", 2); err != nil {
		t.Fatal(err)
	}
	failed, err := pool.FailAny("a")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTriage(pool)
	eng := sim.NewEngine()
	lc := cluster.NewLifecycle(eng, pool, false, false)
	tr.Enqueue("a", "ga", "a", 0.1, 1)
	var sw swapped
	if ok := tr.TryGrant("a", 0.1, 1, swapFor(lc, "a", &sw)); !ok || sw.failed != failed || sw.repl < 0 {
		t.Fatalf("swap grant: %+v (want failed %d) ok=%v", sw, failed, ok)
	}
	if pool.FailedCount("a") != 0 {
		t.Fatalf("swap left a's failed record behind")
	}
	if pool.CountState(cluster.Repairing) != 1 {
		t.Fatalf("swapped-out node not repairing")
	}
	if len(pool.ActiveNodesOf("a")) != 2 {
		t.Fatalf("a not back to strength: %v", pool.ActiveNodesOf("a"))
	}
	eng.Run(sim.Day)
	if pool.CountState(cluster.Repairing) != 0 || pool.Free() != 1 {
		t.Fatalf("swapped-out node not re-imaged: %+v", pool.Snapshot().ByState)
	}
}

// swapped records what a granted swap did.
type swapped struct{ failed, repl int }

// swapFor is a claimant's swap callback: the lifecycle swap of one of
// owner's nodes, recorded into sw when non-nil.
func swapFor(lc *cluster.Lifecycle, owner string, sw *swapped) func() error {
	return func() error {
		failed, repl, _, err := lc.Swap(owner, 1, 1, func() {})
		if err == nil && sw != nil {
			*sw = swapped{failed, repl}
		}
		return err
	}
}

// TestTriageWideClaimSkipped: a claim that does not fit the free budget is
// skipped, so a 32-node scale-up ranked first does not block a 1-node
// recovery ranked second; a claim that fits takes its nodes from the budget
// the claims behind it share.
func TestTriageWideClaimSkipped(t *testing.T) {
	pool := cluster.NewPool(5)
	tr := NewTriage(pool)
	tr.EnqueueNodes("scale", "g1", "g1-scale1", 32, 0.5, 10) // priority 5
	tr.Enqueue("rec", "g2", "g2-db0", 0.1, 2)                // priority 0.2
	if ok := tr.TryGrant("scale", 0.5, 10, func() error { t.Fatal("took nodes for a claim that does not fit"); return nil }); ok {
		t.Fatal("32-node claim granted on 5 free nodes")
	}
	took := false
	if ok := tr.TryGrant("rec", 0.1, 2, func() error { took = true; return nil }); !ok || !took {
		t.Fatalf("1-node claim behind a wide one denied (took=%v)", took)
	}
	if q := tr.Queued(); len(q) != 1 || q[0].Owner != "g1-scale1" || q[0].Nodes != 32 {
		t.Fatalf("queue after the grant: %+v", q)
	}

	// A 3-node claim that fits leaves 2 of the 5 free nodes to the 1-node
	// claims behind it (equal priority, ranked by group): the second and
	// third fit, the fourth does not.
	tr = NewTriage(pool)
	tr.EnqueueNodes("wide", "g0", "g0-scale1", 3, 0.9, 10)
	for _, key := range []string{"r1", "r2", "r3"} {
		tr.Enqueue(key, "g"+key, key, 0.1, 1)
	}
	for _, c := range []struct {
		key  string
		want bool
	}{{"r3", false}, {"r2", true}, {"r1", true}} {
		if ok := tr.TryGrant(c.key, 0.1, 1, func() error { return nil }); ok != c.want {
			t.Errorf("TryGrant(%s) = %v, want %v", c.key, ok, c.want)
		}
	}
}

func TestTriageDeny(t *testing.T) {
	pool := cluster.NewPool(2)
	tr := NewTriage(pool)
	// Unknown key: denied, nothing granted.
	if ok := tr.TryGrant("ghost", 1, 1, func() error { t.Fatal("swapped for a ghost"); return nil }); ok {
		t.Fatalf("granted a claim that was never enqueued")
	}
	if enq, granted := tr.Stats(); enq != 0 || granted != 0 {
		t.Fatalf("stats: enqueued=%d granted=%d", enq, granted)
	}
}

// TestTriageRefusesWindowWrites: the triage shares its pool's gate, so a
// plain event inside a sim.Domains.Drive window may not enqueue a claim.
func TestTriageRefusesWindowWrites(t *testing.T) {
	eng := sim.NewEngine()
	ds := sim.NewDomains([]*sim.Engine{eng, sim.NewEngine()})
	pool := cluster.NewPool(4)
	pool.SetGate(ds.Gate())
	tr := NewTriage(pool)
	eng.ScheduleShared(sim.Second, func(sim.Time) { tr.Enqueue("k1", "g1", "g1/0", 0.1, 2) })
	eng.Schedule(2*sim.Second, func(sim.Time) { tr.Enqueue("k2", "g1", "g1/0", 0.1, 2) })
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue from a plain event inside a window did not panic")
		}
		if enq, _ := tr.Stats(); enq != 1 {
			t.Errorf("enqueued %d, want the shared event's one", enq)
		}
	}()
	ds.Drive(nil, sim.Hour)
}
