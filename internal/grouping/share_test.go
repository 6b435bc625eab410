package grouping

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/epoch"
)

// TestShareValidation: weights must be probabilities strictly below 1.
func TestShareValidation(t *testing.T) {
	p := &Problem{
		Items: []*Item{{ID: "a", Nodes: 1, Spans: epoch.Spans{{S: 0, E: 10}}}},
		D:     100, R: 1, P: 0.9,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	p.Share = []float64{0.3, 0.1}
	if err := p.Validate(); err != nil {
		t.Fatalf("weights: %v", err)
	}
	p.Share = []float64{1.0}
	if err := p.Validate(); err == nil {
		t.Fatal("weight 1.0 accepted")
	}
	p.Share = []float64{-0.1}
	if err := p.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestSharePacksDenser: two tenants whose overlap fails the plain fuzzy
// capacity test but passes the sharing-credited one must merge into one
// group when weights are set, and must not when they are nil.
func TestSharePacksDenser(t *testing.T) {
	// Both active on [0,120) of 1000 epochs: 120 epochs at count 2.
	items := []*Item{
		{ID: "a", Nodes: 4, Spans: epoch.Spans{{S: 0, E: 120}}},
		{ID: "b", Nodes: 4, Spans: epoch.Spans{{S: 0, E: 120}}},
	}
	base := &Problem{Items: items, D: 1000, R: 1, P: 0.9}
	for _, alg := range []string{"2-step", "ffd"} {
		solve := func(p *Problem) *Solution {
			t.Helper()
			var s *Solution
			var err error
			if alg == "2-step" {
				s, err = Solver{}.TwoStep(p)
			} else {
				s, err = FFD(p)
			}
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if err := Verify(p, s); err != nil {
				t.Fatalf("%s: verify: %v", alg, err)
			}
			return s
		}
		plain := solve(base)
		if got := len(plain.Groups); got != 2 {
			t.Fatalf("%s plain: %d groups, want 2 (TTP 0.88 < 0.9)", alg, got)
		}
		shared := &Problem{Items: items, D: 1000, R: 1, P: 0.9, Share: []float64{0.5}}
		dense := solve(shared)
		if got := len(dense.Groups); got != 1 {
			t.Fatalf("%s shared: %d groups, want 1 (credited TTP 0.94)", alg, got)
		}
		if plain.NodesUsed(base.R) <= dense.NodesUsed(base.R) {
			t.Fatalf("%s: sharing did not save nodes: %d vs %d", alg, plain.NodesUsed(base.R), dense.NodesUsed(base.R))
		}
	}
}

// TestSolverMatchesReferenceShared re-runs the solver-equivalence property
// under sharing weights: the pruned, class-concurrent solver must stay
// byte-identical to the reference when both use the credited capacity test.
func TestSolverMatchesReferenceShared(t *testing.T) {
	sizePools := [][]int{{2}, {2, 4}, {2, 4, 8}}
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		d := 50 + rng.Intn(400)
		r := 1 + rng.Intn(3)
		pGuar := 0.9 + 0.099*rng.Float64()
		p := randomProblem(rng, n, d, r, pGuar, sizePools[rng.Intn(len(sizePools))])
		p.Share = []float64{0.15, 0.12, 0.1, 0.08}
		want, err := referenceTwoStep(p)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := Verify(p, want); err != nil {
			t.Fatalf("seed %d: reference invalid under sharing: %v", seed, err)
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := Solver{Workers: workers}.TwoStep(p)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
				t.Errorf("seed %d workers %d: shared-mode solver diverged from reference", seed, workers)
			}
		}
	}
}

// Greedy T_best is NOT monotone under constraint relaxation: on some
// instances the credited test leads the greedy down a worse packing (seed
// 106 above packs 174 vs 168 nodes). The advisor therefore solves both
// tests and keeps the cheaper plan; see advisor.Config.Sharing.
