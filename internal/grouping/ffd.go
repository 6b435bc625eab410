package grouping

import (
	"sort"
	"time"

	"repro/internal/epoch"
)

// FFD runs the First-Fit-Decreasing baseline the paper evaluates against
// (§5, citing Panigrahy et al.'s study of vector bin packing heuristics):
// items are sorted by a scalar size and inserted into the first bin that
// still satisfies the fuzzy capacity constraint, opening a new bin when none
// fits.
//
// Two concretizations matter here. The classic scalar for d-dimensional
// items — the product of the dimension values — degenerates to zero on 0/1
// activity vectors, so we use the natural analogue, total active epochs.
// And the bins must be size-homogeneous: the paper reports FFD within
// 3.6–11.1% of the two-step heuristic, which is only possible if FFD, too,
// packs tenants of equal node counts together (a size-oblivious FFD pays
// R·max(nᵢ) for every mixed bin and loses 40+ percentage points of
// effectiveness — see TestFFDGlobalMixingIsRuinous). What the baseline
// lacks, relative to Algorithm 2, is the activity-aware T_best selection:
// it considers items in fixed decreasing-activity order and never looks at
// how a candidate's epochs interleave with the bin's.
func FFD(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	sol := &Solution{Algorithm: "FFD"}

	bySize := make(map[int][]int)
	for i, it := range p.Items {
		bySize[it.Nodes] = append(bySize[it.Nodes], i)
	}
	sizes := make([]int, 0, len(bySize))
	for n := range bySize {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))

	for _, size := range sizes {
		order := append([]int(nil), bySize[size]...)
		sort.SliceStable(order, func(a, b int) bool {
			return p.Items[order[a]].ActiveEpochs() > p.Items[order[b]].ActiveEpochs()
		})
		type bin struct {
			cs    *epoch.CountSet
			items []int
		}
		var bins []*bin
		for _, idx := range order {
			it := p.Items[idx]
			placed := false
			for _, b := range bins {
				tr := b.cs.Preview(it.Spans)
				if b.cs.NewTTP(p.R, tr) >= p.P {
					b.cs.Add(it.Spans)
					b.items = append(b.items, idx)
					placed = true
					break
				}
			}
			if !placed {
				b := &bin{cs: epoch.NewCountSet(p.D)}
				b.cs.Add(it.Spans)
				b.items = append(b.items, idx)
				bins = append(bins, b)
			}
		}
		for _, b := range bins {
			sol.Groups = append(sol.Groups, Group{
				Items:     b.items,
				MaxNodes:  size,
				TTP:       b.cs.TTP(p.R),
				MaxActive: b.cs.MaxCount(),
			})
		}
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// FFDGlobal is the size-oblivious variant: one global decreasing-activity
// order, first-fit into any bin. It is kept as an ablation showing why the
// largest-item objective makes size-mixing ruinous (DESIGN.md's ablation
// index).
func FFDGlobal(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	order := make([]int, len(p.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := p.Items[order[a]], p.Items[order[b]]
		if la, lb := ia.ActiveEpochs(), ib.ActiveEpochs(); la != lb {
			return la > lb
		}
		return ia.Nodes > ib.Nodes
	})
	type bin struct {
		cs    *epoch.CountSet
		items []int
	}
	var bins []*bin
	for _, idx := range order {
		it := p.Items[idx]
		placed := false
		for _, b := range bins {
			tr := b.cs.Preview(it.Spans)
			if b.cs.NewTTP(p.R, tr) >= p.P {
				b.cs.Add(it.Spans)
				b.items = append(b.items, idx)
				placed = true
				break
			}
		}
		if !placed {
			b := &bin{cs: epoch.NewCountSet(p.D)}
			b.cs.Add(it.Spans)
			b.items = append(b.items, idx)
			bins = append(bins, b)
		}
	}
	sol := &Solution{Algorithm: "FFD-global"}
	for _, b := range bins {
		g := Group{Items: b.items, TTP: b.cs.TTP(p.R), MaxActive: b.cs.MaxCount()}
		for _, idx := range b.items {
			if p.Items[idx].Nodes > g.MaxNodes {
				g.MaxNodes = p.Items[idx].Nodes
			}
		}
		sol.Groups = append(sol.Groups, g)
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}
