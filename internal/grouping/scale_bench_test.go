package grouping

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
)

// scaleProblem builds the benchmark population used by the solver-scale
// benchmarks: n tenants over one day of 10 s epochs with the full size mix.
func scaleProblem(n int) *Problem {
	rng := rand.New(rand.NewSource(1))
	return randomProblem(rng, n, 8640, 3, 0.999, []int{2, 4, 8, 16, 32})
}

func benchTwoStep(b *testing.B, n int) {
	p := scaleProblem(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TwoStep(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStep2000(b *testing.B) { benchTwoStep(b, 2000) }
func BenchmarkTwoStep5000(b *testing.B) { benchTwoStep(b, 5000) }

// BenchmarkPickBest isolates one steady-state T_best scan: the largest size
// class of the 2000-tenant population with a part-built group, measured per
// pickBest call. The scan must be allocation-free — every transition lives in
// candidate-owned scratch buffers, so allocs/op is the headline number here.
func BenchmarkPickBest(b *testing.B) {
	p := scaleProblem(2000)
	bySize := make(map[int][]int)
	for i, it := range p.Items {
		bySize[it.Nodes] = append(bySize[it.Nodes], i)
	}
	var items []int
	for _, is := range bySize {
		if len(is) > len(items) {
			items = is
		}
	}
	se := newSearch(p, items, epoch.NewDenseSet(p.D))
	order := make([]int, len(se.cands))
	for i := range order {
		order[i] = i
	}
	se.cs.Reset()
	se.seed(order)
	// Part-build a group so the scan faces a realistic count function, then
	// run one unmeasured scan to warm the preview scratch buffers.
	for k := 0; k < 8 && len(order) > 1; k++ {
		best, _ := se.pickBest(order)
		order = se.commit(best, order)
	}
	se.pickBest(order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se.pickBest(order)
	}
}
