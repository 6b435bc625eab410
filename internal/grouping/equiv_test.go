package grouping

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/epoch"
)

// stripTiming zeroes the wall-clock fields so solutions can be compared
// byte-for-byte.
func stripTiming(s *Solution) *Solution {
	out := *s
	out.Elapsed = 0
	return &out
}

// withProcs runs f with GOMAXPROCS set to n, the width Solver{Workers: 0}
// takes.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSolverMatchesReference is the solver-equivalence property test: over
// seeded random instances, the optimized solver (at the default width and at
// several pinned worker counts) must produce partitions byte-identical to the
// retained reference implementation — same groups, same member order, same
// statistics. This is what licenses every pruning, scratch-buffer and
// scheduling optimization in twostep.go.
func TestSolverMatchesReference(t *testing.T) {
	sizePools := [][]int{{2}, {2, 4}, {2, 4, 8}, {2, 4, 8, 16, 32}}
	instances := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(120)
		d := 50 + rng.Intn(500)
		r := 1 + rng.Intn(3)
		pGuar := 0.9 + 0.099*rng.Float64()
		p := randomProblem(rng, n, d, r, pGuar, sizePools[rng.Intn(len(sizePools))])
		want, err := referenceTwoStep(p)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := Verify(p, want); err != nil {
			t.Fatalf("seed %d: reference produced invalid solution: %v", seed, err)
		}
		for _, workers := range []int{0, 1, 4, 8} {
			got, err := Solver{Workers: workers}.TwoStep(p)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
				t.Errorf("seed %d (n=%d d=%d r=%d p=%.4f) workers %d: solver diverged from reference\n got: %+v\nwant: %+v",
					seed, n, d, r, pGuar, workers, stripTiming(got), stripTiming(want))
			}
		}
		instances++
	}
	if instances < 20 {
		t.Fatalf("only %d equivalence instances, want at least 20", instances)
	}
}

// TestSolverMatchesReferenceAdversarial covers the shapes most likely to
// break the pruning arguments — many identical tenants (maximal tie-breaking
// pressure), all-idle tenants (empty spans) — and the class scheduler: one
// class only, more workers than classes, more classes than workers, and a
// class with nothing to search.
func TestSolverMatchesReferenceAdversarial(t *testing.T) {
	build := func(name string, items []*Item, d int64, r int, pg float64) *Problem {
		t.Helper()
		p := &Problem{Items: items, D: d, R: r, P: pg}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	var cases []*Problem

	// Heavy ties: 60 tenants drawn from 4 identical activity patterns.
	pats := []epoch.Spans{
		{{S: 0, E: 10}},
		{{S: 5, E: 15}},
		{{S: 20, E: 25}, {S: 30, E: 40}},
		nil, // all idle
	}
	var tied []*Item
	for i := 0; i < 60; i++ {
		tied = append(tied, &Item{ID: fmt.Sprintf("t%02d", i), Nodes: 4, Spans: pats[i%len(pats)]})
	}
	cases = append(cases, build("ties", tied, 50, 2, 0.9))

	// One size class only: nothing to schedule, whatever the worker count.
	rng := rand.New(rand.NewSource(7))
	cases = append(cases, build("one-class", randomProblem(rng, 300, 400, 3, 0.95, []int{8}).Items, 400, 3, 0.95))

	// Two classes: Workers 3 and 8 have more workers than classes.
	cases = append(cases, build("two-classes", randomProblem(rng, 120, 400, 3, 0.95, []int{2, 16}).Items, 400, 3, 0.95))

	// 40 classes of one tenant each: every worker count queues classes.
	var singles []*Item
	for i := 0; i < 40; i++ {
		singles = append(singles, &Item{ID: fmt.Sprintf("s%02d", i), Nodes: 1 + i, Spans: pats[i%len(pats)]})
	}
	cases = append(cases, build("singletons", singles, 50, 2, 0.9))

	// An all-idle class beside an active one.
	mixed := randomProblem(rng, 40, 400, 2, 0.95, []int{4}).Items
	for i := 0; i < 25; i++ {
		mixed = append(mixed, &Item{ID: fmt.Sprintf("idle%02d", i), Nodes: 8})
	}
	cases = append(cases, build("idle-class", mixed, 400, 2, 0.95))

	for ci, p := range cases {
		want, err := referenceTwoStep(p)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, workers := range []int{0, 1, 3, 8} {
			got, err := Solver{Workers: workers}.TwoStep(p)
			if err != nil {
				t.Fatalf("case %d workers %d: %v", ci, workers, err)
			}
			if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
				t.Errorf("case %d workers %d: diverged from reference", ci, workers)
			}
		}
	}
}

// TestLaunchOrder pins the class schedule as a function of the populations
// alone: most populous first, equal populations by descending node count.
func TestLaunchOrder(t *testing.T) {
	pops := map[int]int{32: 3, 16: 7, 8: 7, 4: 12, 2: 7, 1: 1}
	bySize := make(map[int][]int)
	for n, pop := range pops {
		bySize[n] = make([]int, pop)
	}
	want := []int{4, 16, 8, 2, 32, 1}
	for rep := 0; rep < 20; rep++ { // map iteration order varies between reps
		sizes := sortedSizesDesc(bySize)
		var got []int
		for _, ci := range launchOrder(sizes, bySize) {
			got = append(got, sizes[ci])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("launch order %v, want %v", got, want)
		}
	}
}

// TestSolverRejectsNegativeWorkers: a negative count is a caller's bug, not a
// request to solve serially.
func TestSolverRejectsNegativeWorkers(t *testing.T) {
	if _, err := (Solver{Workers: -1}).TwoStep(fig51()); err == nil {
		t.Fatal("Workers: -1 solved")
	}
}
