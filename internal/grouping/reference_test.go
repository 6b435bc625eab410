package grouping

import (
	"time"

	"repro/internal/epoch"
)

// This file retains the original, unoptimized two-step solver verbatim as the
// executable specification of Algorithm 2. The production Solver (twostep.go)
// must produce byte-identical partitions — the seeded equivalence suite in
// equiv_test.go checks every optimization (candidate-order pruning, bounded
// previews, scratch-buffer reuse, the class scheduler) against this code. It is
// O(m²) scans with fresh Preview/NewHist allocations per candidate; never use
// it on large instances.

// referenceTwoStep is the unoptimized TwoStep.
func referenceTwoStep(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	sol := &Solution{Algorithm: "2-step"}

	// Step 1: initial groups by node count, processed in descending size
	// order for deterministic output.
	bySize := make(map[int][]int)
	for i, it := range p.Items {
		bySize[it.Nodes] = append(bySize[it.Nodes], i)
	}
	for _, n := range sortedSizesDesc(bySize) {
		remaining := append([]int(nil), bySize[n]...)
		for len(remaining) > 0 {
			g, rest := referencePackOneGroup(p, remaining)
			sol.Groups = append(sol.Groups, g)
			remaining = rest
		}
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// referencePackOneGroup fills a single tenant-group from the remaining items
// of one initial group and returns it together with the items left over.
func referencePackOneGroup(p *Problem, remaining []int) (Group, []int) {
	cs := epoch.NewCountSet(p.D)
	var members []int
	for len(remaining) > 0 {
		best := referencePickBest(p, cs, remaining)
		it := p.Items[remaining[best]]
		tr := cs.Preview(it.Spans)
		if len(members) > 0 && cs.NewTTP(p.R, tr) < p.P {
			break // Algorithm 2 line 9: T_best no longer fits; close the group.
		}
		// The first member always enters: a single tenant has max count 1 ≤ R.
		members = append(members, remaining[best])
		cs.Add(it.Spans)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return finishGroup(p, cs, members), remaining
}

// referencePickBest returns the index within remaining of T_best under the
// paper's selection rule: lexicographically smallest resulting active-count
// histogram read from the top (first minimize the new maximum, then the
// time share at the maximum, then one level down, …), breaking full ties by
// least active time and finally by position.
func referencePickBest(p *Problem, cs *epoch.CountSet, remaining []int) int {
	best := 0
	var bestHist []int64
	var bestActive int64
	for i, idx := range remaining {
		it := p.Items[idx]
		tr := cs.Preview(it.Spans)
		h := cs.NewHist(tr)
		if bestHist == nil {
			best, bestHist, bestActive = i, h, it.ActiveEpochs()
			continue
		}
		c := epoch.CompareNewHists(h, bestHist)
		if c < 0 || (c == 0 && it.ActiveEpochs() < bestActive) {
			best, bestHist, bestActive = i, h, it.ActiveEpochs()
		}
	}
	return best
}
