package tenant

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/queries"
)

func TestValidate(t *testing.T) {
	good := &Tenant{ID: "T1", Nodes: 2, DataGB: 200, Users: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid tenant rejected: %v", err)
	}
	bad := []*Tenant{
		{Nodes: 2, DataGB: 200, Users: 1},
		{ID: "T", Nodes: 0, DataGB: 200, Users: 1},
		{ID: "T", Nodes: 2, DataGB: 0, Users: 1},
		{ID: "T", Nodes: 2, DataGB: 200, Users: 0},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad tenant %d accepted", i)
		}
	}
}

func TestSampleSizesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes, err := SampleSizes(rng, 100000, 0.8, DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, s := range sizes {
		counts[s]++
	}
	// Monotone decreasing counts with rank: smaller tenants more common.
	prev := 1 << 30
	for _, sz := range DefaultSizes {
		if counts[sz] > prev {
			t.Errorf("size %d count %d exceeds smaller class count %d", sz, counts[sz], prev)
		}
		prev = counts[sz]
		if counts[sz] == 0 {
			t.Errorf("size class %d never drawn", sz)
		}
	}
	// Zipf θ=0.8 over 5 ranks: smallest class ≈ 38.6% of the population.
	frac := float64(counts[2]) / 100000
	if frac < 0.36 || frac < 0 || frac > 0.41 {
		t.Errorf("2-node share = %.3f, want ≈0.386", frac)
	}
}

func TestSampleSizesThetaShapesSkew(t *testing.T) {
	// A larger θ must give a larger small-tenant share.
	share := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(7))
		sizes, err := SampleSizes(rng, 50000, theta, DefaultSizes)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range sizes {
			if s == 2 {
				n++
			}
		}
		return float64(n) / 50000
	}
	if s1, s2 := share(0.1), share(0.99); s1 >= s2 {
		t.Errorf("θ=0.1 share %.3f ≥ θ=0.99 share %.3f; skew not increasing", s1, s2)
	}
}

func TestSampleSizesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SampleSizes(rng, 5, 0.8, nil); err == nil {
		t.Error("empty size classes accepted")
	}
	for _, theta := range []float64{0, 1, -0.5, 2} {
		if _, err := SampleSizes(rng, 5, theta, DefaultSizes); err == nil {
			t.Errorf("θ=%v accepted", theta)
		}
	}
}

func TestPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts, err := Population(rng, 500, 0.8, DefaultSizes, ZoneOffsets)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 500 {
		t.Fatalf("population size %d", len(ts))
	}
	ids := map[string]bool{}
	hasTPCH, hasTPCDS := false, false
	for i, tn := range ts {
		if err := tn.Validate(); err != nil {
			t.Fatalf("tenant %d invalid: %v", i, err)
		}
		if ids[tn.ID] {
			t.Fatalf("duplicate ID %s", tn.ID)
		}
		ids[tn.ID] = true
		if tn.DataGB != DataGBPerNode*float64(tn.Nodes) {
			t.Errorf("%s: DataGB %.0f for %d nodes", tn.ID, tn.DataGB, tn.Nodes)
		}
		if tn.Users < 1 || tn.Users > 5 {
			t.Errorf("%s: users %d outside [1,5]", tn.ID, tn.Users)
		}
		if tn.Suite == queries.TPCH {
			hasTPCH = true
		} else {
			hasTPCDS = true
		}
		if i > 0 && ts[i-1].Nodes < tn.Nodes {
			t.Fatalf("population not sorted by descending size at %d", i)
		}
	}
	if !hasTPCH || !hasTPCDS {
		t.Error("population lacks one of the suites")
	}
}

func TestPopulationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Population(rng, 5, 0.8, DefaultSizes, nil); err == nil {
		t.Error("empty offsets accepted")
	}
	if _, err := Population(rng, 5, 0, DefaultSizes, ZoneOffsets); err == nil {
		t.Error("bad theta accepted")
	}
}

func TestTotalNodes(t *testing.T) {
	ts := []*Tenant{
		{ID: "a", Nodes: 6, DataGB: 600, Users: 1},
		{ID: "b", Nodes: 6, DataGB: 600, Users: 1},
		{ID: "c", Nodes: 2, DataGB: 200, Users: 1},
	}
	if got := TotalNodes(ts); got != 14 {
		t.Errorf("TotalNodes = %d, want 14", got)
	}
}

// TestPaperToyExampleNodeCount reproduces the Figure 4.1 arithmetic: ten
// tenants requesting 6,6,5,5,5,4,4,3,2,2 nodes total 42 nodes.
func TestPaperToyExampleNodeCount(t *testing.T) {
	sizes := []int{6, 6, 5, 5, 5, 4, 4, 3, 2, 2}
	var ts []*Tenant
	for i, n := range sizes {
		ts = append(ts, &Tenant{ID: string(rune('A' + i)), Nodes: n, DataGB: float64(100 * n), Users: 1})
	}
	if got := TotalNodes(ts); got != 42 {
		t.Errorf("toy example total = %d, want 42", got)
	}
}

// TestSampleSizesDeterministic: equal seeds give equal populations.
func TestSampleSizesDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		a, _ := SampleSizes(rand.New(rand.NewSource(seed)), 100, 0.8, DefaultSizes)
		b, _ := SampleSizes(rand.New(rand.NewSource(seed)), 100, 0.8, DefaultSizes)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
