package mppdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
)

func testClass(scanSecGB float64) *queries.Class {
	return &queries.Class{ID: "T", FixedSec: 1, ScanSecGB: scanSecGB}
}

func newReady(t *testing.T, nodes int, tenants ...string) (*sim.Engine, *Instance) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, "db0", nodes)
	for _, tn := range tenants {
		m.DeployTenant(tn, float64(100*nodes))
	}
	return eng, m
}

// refOf is the tenant's ref in the instance's interner (a fresh one for a
// tenant never deployed).
func refOf(m *Instance, id string) tenant.Ref { return m.Interner().Intern(id) }

func TestSingleQueryIsolatedLatency(t *testing.T) {
	eng, m := newReady(t, 4, "a")
	cl := testClass(0.2)
	var res *Result
	m.SetCompletionHandler(func(r Result, _ uint64) { res = &r })
	iso, err := m.SubmitTagged(refOf(m, "a"), cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Duration(cl.Latency(400, 4))
	if iso != want {
		t.Fatalf("isolated = %v, want %v", iso, want)
	}
	if !m.Busy() || m.Running() != 1 || m.TenantRunning("a") != 1 {
		t.Error("busy-state bookkeeping wrong while running")
	}
	eng.RunAll()
	if res == nil {
		t.Fatal("query never completed")
	}
	if res.Latency() != want {
		t.Errorf("latency = %v, want isolated %v", res.Latency(), want)
	}
	if got := res.Slowdown(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("slowdown = %v, want 1.0", got)
	}
	if m.Busy() || m.TenantRunning("a") != 0 {
		t.Error("busy-state bookkeeping wrong after completion")
	}
}

// TestConcurrentSlowdown reproduces the xT-CON observation of Fig 1.1a: two
// identical queries submitted together each take 2× their isolated latency;
// four take 4×.
func TestConcurrentSlowdown(t *testing.T) {
	for _, k := range []int{2, 4} {
		eng, m := newReady(t, 2, "a", "b", "c", "d")
		cl := testClass(0.5)
		var results []Result
		m.SetCompletionHandler(func(r Result, _ uint64) { results = append(results, r) })
		tenants := []string{"a", "b", "c", "d"}
		for i := 0; i < k; i++ {
			if _, err := m.SubmitTagged(refOf(m, tenants[i]), cl, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunAll()
		if len(results) != k {
			t.Fatalf("%d results, want %d", len(results), k)
		}
		for _, r := range results {
			if math.Abs(r.Slowdown()-float64(k)) > 1e-6 {
				t.Errorf("k=%d: slowdown = %v, want %d×", k, r.Slowdown(), k)
			}
		}
	}
}

// TestSequentialNoSlowdown reproduces the xT-SEQ observation: queries
// executed one after another each run at isolated speed.
func TestSequentialNoSlowdown(t *testing.T) {
	eng, m := newReady(t, 2, "a", "b")
	cl := testClass(0.5)
	var slowdowns []float64
	m.SetCompletionHandler(func(r Result, tag uint64) {
		slowdowns = append(slowdowns, r.Slowdown())
		if tag == 0 {
			m.SubmitTagged(refOf(m, "b"), cl, 1)
		}
	})
	m.SubmitTagged(refOf(m, "a"), cl, 0)
	eng.RunAll()
	if len(slowdowns) != 2 {
		t.Fatalf("%d completions, want 2", len(slowdowns))
	}
	for i, s := range slowdowns {
		if math.Abs(s-1.0) > 1e-9 {
			t.Errorf("query %d slowdown = %v, want 1.0", i, s)
		}
	}
}

// TestStaggeredProcessorSharing checks PS arithmetic with a late arrival:
// query A (10 s work) runs alone for 5 s, then query B (10 s work) joins.
// They share until A finishes at t=15 (5 remaining × 2), B then has 5 s
// left and finishes at t=20.
func TestStaggeredProcessorSharing(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, "db", 1)
	m.DeployTenant("a", 9) // 1 + 9·1 = 10 s with ScanSecGB=1
	m.DeployTenant("b", 9)
	cl := testClass(1.0)
	fin := make([]sim.Time, 2) // by tag: A, B
	m.SetCompletionHandler(func(r Result, tag uint64) { fin[tag] = r.Finish })
	m.SubmitTagged(refOf(m, "a"), cl, 0)
	eng.Schedule(5*sim.Second, func(sim.Time) {
		m.SubmitTagged(refOf(m, "b"), cl, 1)
	})
	eng.RunAll()
	if fin[0] != 15*sim.Second {
		t.Errorf("A finished at %v, want 15s", fin[0])
	}
	if fin[1] != 20*sim.Second {
		t.Errorf("B finished at %v, want 20s", fin[1])
	}
}

func TestSubmitErrors(t *testing.T) {
	eng, m := newReady(t, 2, "a")
	if _, err := m.SubmitTagged(refOf(m, "ghost"), testClass(1), 0); err == nil {
		t.Error("undeployed tenant accepted")
	}
	if _, err := m.SubmitTagged(tenant.NoRef, testClass(1), 0); err == nil {
		t.Error("unresolved ref accepted")
	}
	m.SetState(Loading)
	if _, err := m.SubmitTagged(refOf(m, "a"), testClass(1), 0); err == nil {
		t.Error("non-ready instance accepted a query")
	}
	_ = eng
}

func TestTenantManagement(t *testing.T) {
	_, m := newReady(t, 2, "b", "a")
	if got := m.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Tenants = %v", got)
	}
	if !m.HasTenant("a") || m.HasTenant("z") {
		t.Error("HasTenant wrong")
	}
	if m.TenantDataGB() != 400 {
		t.Errorf("TenantDataGB = %v, want 400", m.TenantDataGB())
	}
}

// TestNodeFailureDegradesThroughput: failing one of two nodes halves the
// progress rate of in-flight queries.
func TestNodeFailureDegradesThroughput(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, "db", 2)
	m.DeployTenant("a", 18) // 1 + 18·1/2 = 10 s isolated on 2 nodes
	cl := testClass(1.0)
	var fin sim.Time
	m.SetCompletionHandler(func(r Result, _ uint64) { fin = r.Finish })
	m.SubmitTagged(refOf(m, "a"), cl, 0)
	// Fail a node halfway through: 5 s done, 5 s left at half speed = 10 s.
	eng.Schedule(5*sim.Second, func(sim.Time) {
		if err := m.FailNode(); err != nil {
			t.Error(err)
		}
	})
	eng.RunAll()
	if fin != 15*sim.Second {
		t.Errorf("finish = %v, want 15s under degraded operation", fin)
	}
	if m.FailedNodes() != 1 {
		t.Errorf("FailedNodes = %d", m.FailedNodes())
	}
	if err := m.RepairNode(); err != nil {
		t.Error(err)
	}
	if err := m.RepairNode(); err == nil {
		t.Error("repairing with no failures accepted")
	}
}

func TestCannotFailLastNode(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, "db", 2)
	if err := m.FailNode(); err != nil {
		t.Fatal(err)
	}
	if err := m.FailNode(); err == nil {
		t.Error("failing the last live node accepted")
	}
}

// TestWorkConservation: regardless of arrival pattern, total busy time of
// the instance equals the sum of isolated latencies (processor sharing is
// work-conserving), and every query's latency ≥ its isolated latency.
func TestWorkConservation(t *testing.T) {
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		m := New(eng, "db", 4)
		m.DeployTenant("t", 100)
		var results []Result
		m.SetCompletionHandler(func(r Result, _ uint64) { results = append(results, r) })
		var totalIso float64
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			at := sim.Time(rng.Int63n(30)) * sim.Second
			cl := testClass(0.01 + rng.Float64()*0.2)
			eng.Schedule(at, func(sim.Time) {
				iso, err := m.SubmitTagged(refOf(m, "t"), cl, 0)
				if err != nil {
					t.Fatal(err)
				}
				totalIso += iso.Seconds()
			})
		}
		eng.RunAll()
		if len(results) != n {
			return false
		}
		var lastFinish, firstSubmit sim.Time
		firstSubmit = sim.MaxTime
		for _, r := range results {
			if r.Latency() < r.Isolated-sim.Millisecond {
				t.Logf("latency %v < isolated %v", r.Latency(), r.Isolated)
				return false
			}
			if r.Finish > lastFinish {
				lastFinish = r.Finish
			}
			if r.Submit < firstSubmit {
				firstSubmit = r.Submit
			}
		}
		// Work conservation: the busy span can never be shorter than total
		// work, and if queries overlap end-to-end it is at most span ≥ work
		// is all we can assert generally; check the strongest easy bound:
		// last finish ≥ first submit + total work only when the server never
		// idles. Instead assert: sum of latencies ≥ total isolated work.
		var sumLat float64
		for _, r := range results {
			sumLat += r.Latency().Seconds()
		}
		return sumLat >= totalIso-1e-6
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Provisioning: "provisioning", Loading: "loading", Ready: "ready", Stopped: "stopped",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 nodes did not panic")
		}
	}()
	New(sim.NewEngine(), "bad", 0)
}
