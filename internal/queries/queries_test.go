package queries

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultCatalog(t *testing.T) {
	c := Default()
	if got := len(c.Suite(TPCH)); got != 22 {
		t.Errorf("TPC-H count = %d, want 22", got)
	}
	if got := len(c.Suite(TPCDS)); got != 24 {
		t.Errorf("TPC-DS count = %d, want 24", got)
	}
	if c.Len() != 46 {
		t.Errorf("total = %d, want 46", c.Len())
	}
	for _, cl := range c.Classes() {
		if cl.SQL == "" {
			t.Errorf("%s has no SQL text", cl.ID)
		}
		if cl.ScanSecGB < 0 || cl.FixedSec <= 0 {
			t.Errorf("%s has a degenerate profile: %+v", cl.ID, cl)
		}
	}
}

func TestByID(t *testing.T) {
	c := Default()
	q1, ok := c.ByID("TPCH-Q1")
	if !ok || q1.Number != 1 || q1.Suite != TPCH {
		t.Fatalf("ByID(TPCH-Q1) = %+v, %v", q1, ok)
	}
	if !strings.Contains(q1.SQL, "l_returnflag") {
		t.Errorf("Q1 SQL does not look like TPC-H Q1: %q", q1.SQL)
	}
	if _, ok := c.ByID("TPCH-Q99"); ok {
		t.Error("nonexistent query found")
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	_, err := NewCatalog([]*Class{{ID: "X"}, {ID: "X"}})
	if err == nil {
		t.Error("duplicate IDs accepted")
	}
	_, err = NewCatalog([]*Class{{}})
	if err == nil {
		t.Error("empty ID accepted")
	}
}

// TestQ1ScalesLinearly reproduces the premise of Figure 1.1a: TPC-H Q1
// scales out (almost) linearly with the number of nodes.
func TestQ1ScalesLinearly(t *testing.T) {
	c := Default()
	q1, _ := c.ByID("TPCH-Q1")
	if !q1.LinearScaleOut() {
		t.Errorf("Q1 classified non-linear; speedup(100GB, 8) = %.2f", q1.Speedup(100, 8))
	}
	// Speedup should grow monotonically through 8 nodes.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		s := q1.Speedup(100, n)
		if s <= prev {
			t.Errorf("Q1 speedup not monotone at %d nodes: %.2f <= %.2f", n, s, prev)
		}
		prev = s
	}
	if s := q1.Speedup(100, 8); s < 6.0 || s > 8.0 {
		t.Errorf("Q1 8-node speedup = %.2f, want close-to-linear (6..8)", s)
	}
}

// TestQ19NonLinear reproduces Figure 1.1c: TPC-H Q19 does not scale out
// linearly — its speedup flattens well below the node count.
func TestQ19NonLinear(t *testing.T) {
	c := Default()
	q19, _ := c.ByID("TPCH-Q19")
	if q19.LinearScaleOut() {
		t.Errorf("Q19 classified linear; speedup(100GB, 8) = %.2f", q19.Speedup(100, 8))
	}
	if s := q19.Speedup(100, 8); s > 4.0 {
		t.Errorf("Q19 8-node speedup = %.2f, want a plateau well under linear", s)
	}
	if s := q19.Speedup(100, 2); s < 1.0 {
		t.Errorf("Q19 2-node speedup = %.2f, must still beat 1 node", s)
	}
}

func TestCatalogHasBothScaleOutClasses(t *testing.T) {
	// Requirement R4: tenants run a mix of linear and non-linear queries.
	c := Default()
	linear, nonLinear := 0, 0
	for _, cl := range c.Classes() {
		if cl.LinearScaleOut() {
			linear++
		} else {
			nonLinear++
		}
	}
	if linear == 0 || nonLinear == 0 {
		t.Errorf("catalog must mix classes: %d linear, %d non-linear", linear, nonLinear)
	}
}

// TestLatencyProperties checks basic sanity of the latency model for random
// profiles: positive, decreasing in nodes for scan-dominated queries,
// increasing in data.
func TestLatencyProperties(t *testing.T) {
	f := func(scan10 uint8, data10 uint16) bool {
		cl := &Class{FixedSec: 1, SerialSec: 0.5, ScanSecGB: float64(scan10%50)/10 + 0.05}
		data := float64(data10%5000) + 1
		prev := time.Duration(1<<62 - 1)
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			l := cl.Latency(data, n)
			if l <= 0 {
				return false
			}
			if l > prev { // no shuffle/coord: strictly better with more nodes
				return false
			}
			prev = l
		}
		// More data ⇒ more time.
		return cl.Latency(2*data, 4) > cl.Latency(data, 4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyClampsNodes(t *testing.T) {
	cl := &Class{FixedSec: 1, ScanSecGB: 1}
	if cl.Latency(10, 0) != cl.Latency(10, 1) {
		t.Error("nodes<1 not clamped to 1")
	}
}

// TestWorkloadMeanLatencyCalibration pins the calibration target: the mean
// isolated latency of a TPC-H stream on a tenant's requested configuration
// (100 GB per node, §7.1) sits in the seconds for every size class. This is
// the regime in which the paper's ~16-tenant groups are feasible at R=3 /
// P=99.9%: with think times of minutes, tenants are instantaneously active
// only a few percent of their sessions.
func TestWorkloadMeanLatencyCalibration(t *testing.T) {
	c := Default()
	for _, n := range []int{2, 4, 8, 16, 32} {
		data := float64(100 * n)
		for _, s := range []Suite{TPCH, TPCDS} {
			var total time.Duration
			for _, cl := range c.Suite(s) {
				total += cl.Latency(data, n)
			}
			mean := total / time.Duration(len(c.Suite(s)))
			if mean < time.Second || mean > 30*time.Second {
				t.Errorf("%v mean latency on %d nodes/%vGB = %v, want 1s..30s", s, n, data, mean)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	c := Default()
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		qa, qb := c.Random(a, TPCH), c.Random(b, TPCH)
		if qa.ID != qb.ID {
			t.Fatal("Random not deterministic for equal seeds")
		}
		if qa.Suite != TPCH {
			t.Fatalf("Random(TPCH) returned %v", qa.Suite)
		}
	}
	if got := c.Random(rand.New(rand.NewSource(1)), Suite(99)); got != nil {
		t.Error("unknown suite should return nil")
	}
}

func TestSuiteString(t *testing.T) {
	if TPCH.String() != "TPC-H" || TPCDS.String() != "TPC-DS" {
		t.Error("suite names wrong")
	}
	if Suite(9).String() != "Suite(9)" {
		t.Error("unknown suite string wrong")
	}
}
