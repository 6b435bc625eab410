package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(10)
	if p.Size() != 10 || p.CountState(Hibernated) != 10 {
		t.Fatalf("fresh pool wrong: size=%d hib=%d", p.Size(), p.CountState(Hibernated))
	}
	nodes, err := p.Acquire("mppdb-0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("acquired %d nodes, want 4", len(nodes))
	}
	for _, nd := range nodes {
		if nd.State != Active || nd.Owner != "mppdb-0" {
			t.Errorf("node %d: state=%v owner=%q", nd.ID, nd.State, nd.Owner)
		}
	}
	if p.CountState(Active) != 4 || p.CountState(Hibernated) != 6 {
		t.Errorf("after acquire: active=%d hib=%d", p.CountState(Active), p.CountState(Hibernated))
	}
	if n := p.Release("mppdb-0"); n != 4 {
		t.Errorf("released %d, want 4", n)
	}
	if p.CountState(Hibernated) != 10 {
		t.Errorf("after release: hib=%d, want 10", p.CountState(Hibernated))
	}
}

func TestPoolAcquireExhaustion(t *testing.T) {
	p := NewPool(3)
	if _, err := p.Acquire("a", 5); err == nil {
		t.Fatal("over-acquire succeeded")
	}
	// Failure must not leak partial acquisitions.
	if p.CountState(Active) != 0 {
		t.Errorf("partial acquire leaked: %d active", p.CountState(Active))
	}
	if _, err := p.Acquire("a", 0); err == nil {
		t.Error("zero-node acquire accepted")
	}
}

func TestPoolFailAndReplace(t *testing.T) {
	p := NewPool(5)
	nodes, _ := p.Acquire("db", 3)
	owner, err := p.Fail(nodes[1].ID)
	if err != nil || owner != "db" {
		t.Fatalf("Fail: owner=%q err=%v", owner, err)
	}
	if p.CountState(Failed) != 1 {
		t.Errorf("failed count = %d", p.CountState(Failed))
	}
	repl, err := p.Replace(nodes[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if repl.Owner != "db" || repl.State != Active {
		t.Errorf("replacement: %+v", repl)
	}
	// The failed node is carted away for re-imaging, not instantly recycled.
	if p.CountState(Failed) != 0 || p.CountState(Active) != 3 || p.CountState(Repairing) != 1 {
		t.Errorf("after replace: failed=%d active=%d repairing=%d",
			p.CountState(Failed), p.CountState(Active), p.CountState(Repairing))
	}
	// Only Reimage returns it to the hibernated free list.
	if err := p.Reimage(nodes[1].ID); err != nil {
		t.Fatal(err)
	}
	if p.CountState(Repairing) != 0 || p.CountState(Hibernated) != 2 {
		t.Errorf("after reimage: repairing=%d hib=%d",
			p.CountState(Repairing), p.CountState(Hibernated))
	}
	// Error paths.
	if _, err := p.Fail(99); err == nil {
		t.Error("failing unknown node accepted")
	}
	if _, err := p.Fail(repl.ID); err != nil {
		t.Error("failing active node rejected")
	}
	if _, err := p.Replace(nodes[0].ID); err == nil {
		t.Error("replacing non-failed node accepted")
	}
	if _, err := p.Replace(-1); err == nil {
		t.Error("replacing unknown node accepted")
	}
	if err := p.Reimage(nodes[0].ID); err == nil {
		t.Error("re-imaging non-repairing node accepted")
	}
	if err := p.Reimage(42); err == nil {
		t.Error("re-imaging unknown node accepted")
	}
}

func TestPoolReplaceExhaustion(t *testing.T) {
	p := NewPool(2)
	nodes, _ := p.Acquire("db", 2)
	if _, err := p.Fail(nodes[0].ID); err != nil {
		t.Fatal(err)
	}
	// No hibernated node is free: Replace must fail without side effects —
	// the failed node stays Failed (not consumed into Repairing).
	if _, err := p.Replace(nodes[0].ID); err == nil {
		t.Fatal("replace succeeded on an exhausted pool")
	}
	if p.CountState(Failed) != 1 || p.CountState(Repairing) != 0 {
		t.Errorf("exhausted replace left failed=%d repairing=%d",
			p.CountState(Failed), p.CountState(Repairing))
	}
}

func TestFailedNodesOfAndFailAny(t *testing.T) {
	p := NewPool(8)
	p.Acquire("a", 3)
	p.Acquire("b", 2)
	if got := p.FailedNodesOf("a"); len(got) != 0 {
		t.Errorf("fresh FailedNodesOf = %v", got)
	}
	id, err := p.FailAny("a")
	if err != nil || id != 0 {
		t.Fatalf("FailAny(a) = %d, %v; want lowest active ID 0", id, err)
	}
	id2, err := p.FailAny("a")
	if err != nil || id2 != 1 {
		t.Fatalf("second FailAny(a) = %d, %v; want 1", id2, err)
	}
	if got := p.FailedNodesOf("a"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("FailedNodesOf(a) = %v, want [0 1]", got)
	}
	if got := p.FailedNodesOf("b"); len(got) != 0 {
		t.Errorf("FailedNodesOf(b) = %v, want none", got)
	}
	if _, err := p.FailAny("nobody"); err == nil {
		t.Error("FailAny of unknown owner accepted")
	}
	// Exhaust a's active nodes, then FailAny must error.
	if _, err := p.FailAny("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FailAny("a"); err == nil {
		t.Error("FailAny with no active nodes accepted")
	}
}

func TestReimageTime(t *testing.T) {
	if ReimageTime() <= 0 {
		t.Error("ReimageTime not positive")
	}
	// Re-imaging is an offline background chore; it must not be cheaper than
	// starting the single replacement node, or the state would be pointless.
	if ReimageTime() < StartupTime(1) {
		t.Error("ReimageTime cheaper than single-node startup")
	}
}

// TestStartupTimeMatchesTable51 pins the provisioning model to the paper's
// Table 5.1 "Node Starting & MPPDB Initialization" column within 12%.
func TestStartupTimeMatchesTable51(t *testing.T) {
	paper := map[int]float64{2: 462, 4: 850, 6: 1248, 8: 1504, 10: 1779}
	for n, want := range paper {
		got := StartupTime(n).Seconds()
		if rel := abs(got-want) / want; rel > 0.12 {
			t.Errorf("StartupTime(%d) = %.0fs, paper %.0fs (%.0f%% off)", n, got, want, rel*100)
		}
	}
	if StartupTime(0) != 0 {
		t.Error("StartupTime(0) != 0")
	}
}

// TestLoadTimeMatchesTable51 pins the serial bulk-loading model to the
// paper's Table 5.1 "Bulk Loading" column within 12% (1 TB = 1024 GB there).
func TestLoadTimeMatchesTable51(t *testing.T) {
	paper := []struct {
		gb   float64
		want float64
	}{
		{200, 10172}, {400, 20302}, {600, 30121}, {800, 40853}, {1024, 50446},
	}
	for _, c := range paper {
		got := LoadTime(c.gb, 2, false).Seconds()
		if rel := abs(got-c.want) / c.want; rel > 0.12 {
			t.Errorf("LoadTime(%vGB) = %.0fs, paper %.0fs (%.0f%% off)", c.gb, got, c.want, rel*100)
		}
	}
	if LoadTime(0, 4, true) != 0 {
		t.Error("LoadTime(0) != 0")
	}
}

// TestParallelLoadMatchesFig77 reproduces the elastic-scaling load in §7.5:
// a 4-node tenant's 400 GB loads in about 5000 s with parallel loading.
func TestParallelLoadMatchesFig77(t *testing.T) {
	got := LoadTime(400, 4, true).Seconds()
	if got < 4000 || got > 6000 {
		t.Errorf("parallel LoadTime(400GB, 4 nodes) = %.0fs, paper ≈5000s", got)
	}
	// Parallel loading must beat serial loading on multi-node instances.
	if LoadTime(400, 4, true) >= LoadTime(400, 4, false) {
		t.Error("parallel load not faster than serial")
	}
	// ... and be identical on a single node.
	if LoadTime(400, 1, true) != LoadTime(400, 1, false) {
		t.Error("single-node parallel load differs from serial")
	}
}

func TestProvisionTime(t *testing.T) {
	// Load time dominates startup for real tenant sizes (§5.1's motivation
	// for lightweight scaling).
	if LoadTime(1024, 10, false) < 10*StartupTime(10) {
		t.Error("serial load should dominate startup by an order of magnitude")
	}
}

func TestNodeStateString(t *testing.T) {
	if Hibernated.String() != "hibernated" || Active.String() != "active" ||
		Failed.String() != "failed" || Repairing.String() != "repairing" {
		t.Error("state names wrong")
	}
	if NodeState(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestPoolRefusesWindowWrites: a plain event inside a sim.Domains.Drive
// window may read the pool but not change it; a shared event may.
func TestPoolRefusesWindowWrites(t *testing.T) {
	eng := sim.NewEngine()
	ds := sim.NewDomains([]*sim.Engine{eng, sim.NewEngine()})
	p := NewPool(4)
	p.SetGate(ds.Gate())
	eng.ScheduleShared(sim.Second, func(sim.Time) {
		if _, err := p.Acquire("db0", 1); err != nil {
			t.Error(err)
		}
	})
	eng.Schedule(2*sim.Second, func(sim.Time) {
		if p.Free() != 3 {
			t.Errorf("free %d", p.Free())
		}
		p.Release("db0")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Release from a plain event inside a window did not panic")
		}
	}()
	ds.Drive(nil, sim.Hour)
}

// TestFailedCountMatchesScan drives seeded sequences of every pool mutation
// — acquire (plain and spread), fail, fail-any, replace, re-image, release,
// respread, domain outage and restore, errors included — and checks each
// owner's FailedCount against a scan of the pool after every step.
func TestFailedCountMatchesScan(t *testing.T) {
	owners := []string{"db0", "db1", "db2", "tmp"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPoolDomains(24, 3)
		for step := 0; step < 400; step++ {
			owner := owners[rng.Intn(len(owners))]
			var op string
			switch rng.Intn(10) {
			case 0:
				op = "Acquire"
				p.Acquire(owner, 1+rng.Intn(3))
			case 1:
				op = "AcquireSpread"
				p.AcquireSpread(owner, 1+rng.Intn(3), []int{rng.Intn(3)})
			case 2:
				op = "Fail"
				p.Fail(rng.Intn(p.Size()))
			case 3:
				op = "FailAny"
				p.FailAny(owner)
			case 4:
				op = "Replace"
				p.Replace(rng.Intn(p.Size()))
			case 5:
				op = "Reimage"
				p.Reimage(rng.Intn(p.Size()))
			case 6:
				op = "Release"
				p.Release(owner)
			case 7:
				op = "CompleteRespread"
				p.CompleteRespread(owner, "tmp")
			case 8:
				op = "FailDomain"
				p.FailDomain(rng.Intn(3))
			default:
				op = "RestoreDomain"
				p.RestoreDomain(rng.Intn(3))
			}
			for _, o := range owners {
				if got, want := p.FailedCount(o), len(p.FailedNodesOf(o)); got != want {
					t.Fatalf("seed %d step %d (%s by %s): FailedCount(%s) = %d, scan finds %d", seed, step, op, owner, o, got, want)
				}
			}
		}
	}
}
