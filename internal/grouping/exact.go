package grouping

import (
	"fmt"
	"time"

	"repro/internal/epoch"
)

// ExactLimit bounds the instance size Exact accepts. Set partitions grow as
// the Bell numbers; beyond a dozen items even pruned search is hopeless —
// which is the paper's own finding for its MINLP formulation (DIRECT took
// 12 days for 20 tenants).
const ExactLimit = 12

// Exact finds an optimal tenant-group formation by branch-and-bound over set
// partitions. It replaces the paper's MINLP/DIRECT reference solution for
// validating heuristic quality on toy instances (Appendix 9.1).
func Exact(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Items) > ExactLimit {
		return nil, fmt.Errorf("grouping: exact solver limited to %d items, got %d", ExactLimit, len(p.Items))
	}
	start := time.Now()

	type state struct {
		cs       *epoch.CountSet
		items    []int
		maxNodes int
	}
	var groups []*state
	bestCost := 1 << 30
	var best [][]int

	// Process items in descending node order: the largest item of each group
	// is then the first one placed in it, making the group cost fixed at
	// creation — a tight bound for pruning.
	order := make([]int, len(p.Items))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && p.Items[order[j-1]].Nodes < p.Items[order[j]].Nodes; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}

	cost := func() int {
		c := 0
		for _, g := range groups {
			c += p.R * g.maxNodes
		}
		return c
	}

	var rec func(k int)
	rec = func(k int) {
		if cost() >= bestCost {
			return // no placement can lower the cost of existing groups
		}
		if k == len(order) {
			bestCost = cost()
			best = best[:0]
			for _, g := range groups {
				best = append(best, append([]int(nil), g.items...))
			}
			return
		}
		idx := order[k]
		it := p.Items[idx]
		// Try existing groups. Symmetric groups (same contents class) are
		// not deduplicated — instances are tiny.
		for _, g := range groups {
			tr := g.cs.Preview(it.Spans)
			if g.cs.NewTTP(p.R, tr) < p.P {
				continue
			}
			saved := g.cs
			g.cs = g.cs.Clone()
			g.cs.Add(it.Spans)
			g.items = append(g.items, idx)
			rec(k + 1)
			g.items = g.items[:len(g.items)-1]
			g.cs = saved
		}
		// Open a new group.
		cs := epoch.NewCountSet(p.D)
		cs.Add(it.Spans)
		groups = append(groups, &state{cs: cs, items: []int{idx}, maxNodes: it.Nodes})
		rec(k + 1)
		groups = groups[:len(groups)-1]
	}
	rec(0)

	sol := &Solution{Algorithm: "exact"}
	for _, items := range best {
		cs := epoch.NewCountSet(p.D)
		g := Group{Items: items}
		for _, idx := range items {
			cs.Add(p.Items[idx].Spans)
			if p.Items[idx].Nodes > g.MaxNodes {
				g.MaxNodes = p.Items[idx].Nodes
			}
		}
		g.TTP = cs.TTP(p.R)
		g.MaxActive = cs.MaxCount()
		sol.Groups = append(sol.Groups, g)
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}
