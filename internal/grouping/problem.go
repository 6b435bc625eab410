// Package grouping solves the tenant-grouping optimization at the core of
// Thrifty (thesis §5 and Appendix 9.1): the Largest Item Vector Bin Packing
// Problem with Fuzzy Capacity (LIVBPwFC).
//
// An item is a tenant, characterized by (Aᵢ, nᵢ): its epoch-quantized
// activity vector and its requested node count. A bin is a tenant-group with
// the fuzzy capacity constraint that at least P% of epochs have at most R
// concurrently active member tenants (R is the replication factor; under
// the tenant-driven design a group is served by A = R MPPDBs, so up to R
// active tenants can each have a dedicated MPPDB). The objective is to
// minimize Σ over groups of R × (largest member's node count) — the number
// of machine nodes the group's cluster design consumes.
//
// Three solvers are provided: the paper's two-step heuristic (Algorithm 2),
// the First-Fit-Decreasing baseline it is evaluated against, and an exact
// branch-and-bound for tiny instances (the paper's MINLP-via-DIRECT
// reference, which took 12 days for 20 tenants, is replaced by exhaustive
// search over set partitions with pruning).
package grouping

import (
	"fmt"
	"time"

	"repro/internal/epoch"
)

// Item is one tenant in LIVBPwFC form.
type Item struct {
	// ID identifies the tenant.
	ID string
	// Nodes is nᵢ, the tenant's requested node count.
	Nodes int
	// Spans is the tenant's epoch-quantized activity Aᵢ.
	Spans epoch.Spans
}

// ActiveEpochs returns the number of active epochs (|Aᵢ|).
func (it *Item) ActiveEpochs() int64 { return it.Spans.Len() }

// Problem is one LIVBPwFC instance.
type Problem struct {
	// Items are the tenants to pack.
	Items []*Item
	// D is the number of epochs in the horizon.
	D int64
	// R is the replication factor (bin capacity vector ⟨R,…,R⟩).
	R int
	// P is the performance SLA guarantee in [0,1]: the fraction of epochs
	// that must have at most R active tenants per group.
	P float64
}

// Measure fills cs with items, whatever it held, and returns the statistics of
// the group they form under the problem's test (Items is left nil). It is the
// one place a member list becomes TTP, MaxActive and MaxNodes, so the audits
// that re-derive a group from its members — Verify, SolutionFromMembers, the
// advisor's kept-group check — cannot drift from the rule the solvers pack
// under, and it builds the count function in one sweep (CountSet.Fill) where
// the solvers merge member by member, so an audit does not repeat the solve.
// cs must span p.D epochs; reusing one across calls reuses its buffers.
func (p *Problem) Measure(cs *epoch.CountSet, items []*Item) Group {
	var g Group
	members := make([]epoch.Spans, len(items))
	for i, it := range items {
		members[i] = it.Spans
		g.MaxNodes = max(g.MaxNodes, it.Nodes)
	}
	cs.Fill(members)
	g.TTP, g.MaxActive = cs.TTP(p.R), cs.MaxCount()
	return g
}

// Validate checks instance consistency.
func (p *Problem) Validate() error {
	if p.D <= 0 {
		return fmt.Errorf("grouping: D=%d", p.D)
	}
	if p.R < 1 {
		return fmt.Errorf("grouping: replication factor R=%d", p.R)
	}
	if p.P < 0 || p.P > 1 {
		return fmt.Errorf("grouping: P=%v outside [0,1]", p.P)
	}
	seen := make(map[string]bool, len(p.Items))
	for i, it := range p.Items {
		if it.ID == "" {
			return fmt.Errorf("grouping: item %d has empty ID", i)
		}
		if seen[it.ID] {
			return fmt.Errorf("grouping: duplicate item %q", it.ID)
		}
		seen[it.ID] = true
		if it.Nodes < 1 {
			return fmt.Errorf("grouping: item %q requests %d nodes", it.ID, it.Nodes)
		}
		if !it.Spans.Valid() {
			return fmt.Errorf("grouping: item %q has invalid spans", it.ID)
		}
		for _, s := range it.Spans {
			if s.S < 0 || int64(s.E) > p.D {
				return fmt.Errorf("grouping: item %q span [%d,%d) outside [0,%d)", it.ID, s.S, s.E, p.D)
			}
		}
	}
	return nil
}

// RequestedNodes returns Σ nᵢ over all items.
func (p *Problem) RequestedNodes() int {
	n := 0
	for _, it := range p.Items {
		n += it.Nodes
	}
	return n
}

// Group is one tenant-group of a solution.
type Group struct {
	// Items indexes into Problem.Items.
	Items []int
	// MaxNodes is the largest member's node count; the group's cluster
	// design uses R MPPDBs of MaxNodes nodes each.
	MaxNodes int
	// TTP is the group's total time percentage at threshold R, in [0,1].
	TTP float64
	// MaxActive is the peak number of concurrently active members.
	MaxActive int
}

// Cost returns the machine nodes the group consumes under the tenant-driven
// design: R MPPDBs (including the tuning MPPDB G₀ at U = n₁) of MaxNodes
// nodes each.
func (g *Group) Cost(r int) int { return r * g.MaxNodes }

// Solution is a complete tenant-group formation.
type Solution struct {
	// Algorithm names the solver that produced the solution.
	Algorithm string
	// Groups is the partition of the problem's items.
	Groups []Group
	// Elapsed is the solver's wall-clock running time.
	Elapsed time.Duration
}

// NodesUsed returns the total machine nodes consumed.
func (s *Solution) NodesUsed(r int) int {
	n := 0
	for i := range s.Groups {
		n += s.Groups[i].Cost(r)
	}
	return n
}

// MeanGroupSize returns the average number of tenants per group (the
// Fig 7.x(b) metric).
func (s *Solution) MeanGroupSize() float64 {
	if len(s.Groups) == 0 {
		return 0
	}
	n := 0
	for i := range s.Groups {
		n += len(s.Groups[i].Items)
	}
	return float64(n) / float64(len(s.Groups))
}

// Effectiveness returns the consolidation effectiveness against the problem:
// the fraction of requested nodes saved (§7.3: "a 80% consolidation
// effectiveness means that if the tenants all together request 10000 machine
// nodes, Thrifty can serve all of them using 2000 nodes only").
func (s *Solution) Effectiveness(p *Problem) float64 {
	req := p.RequestedNodes()
	if req == 0 {
		return 0
	}
	return 1 - float64(s.NodesUsed(p.R))/float64(req)
}

// SolutionFromMembers re-expresses an explicit assignment of item IDs to
// groups as a Solution, recomputing every group's statistics. The online
// control loop uses it to audit its live, incrementally maintained
// partition against the LIVBPwFC constraint with the same Verify the
// offline solvers answer to.
func SolutionFromMembers(p *Problem, groups [][]string, algorithm string) (*Solution, error) {
	idx := make(map[string]int, len(p.Items))
	for i, it := range p.Items {
		idx[it.ID] = i
	}
	sol := &Solution{Algorithm: algorithm}
	cs := epoch.NewCountSet(p.D)
	var items []*Item
	for gi, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("grouping: member group %d is empty", gi)
		}
		var indices []int
		items = items[:0]
		for _, id := range members {
			i, ok := idx[id]
			if !ok {
				return nil, fmt.Errorf("grouping: member %q is not a problem item", id)
			}
			indices = append(indices, i)
			items = append(items, p.Items[i])
		}
		g := p.Measure(cs, items)
		g.Items = indices
		sol.Groups = append(sol.Groups, g)
	}
	return sol, nil
}

// Verify checks that the solution is a valid partition of the problem's
// items and that every group satisfies the fuzzy capacity constraint; it
// also recomputes each group's reported statistics.
func Verify(p *Problem, s *Solution) error {
	if err := p.Validate(); err != nil {
		return err
	}
	used := make([]bool, len(p.Items))
	cs := epoch.NewCountSet(p.D)
	var items []*Item
	for gi := range s.Groups {
		g := &s.Groups[gi]
		if len(g.Items) == 0 {
			return fmt.Errorf("grouping: group %d is empty", gi)
		}
		items = items[:0]
		for _, idx := range g.Items {
			if idx < 0 || idx >= len(p.Items) {
				return fmt.Errorf("grouping: group %d references item %d", gi, idx)
			}
			if used[idx] {
				return fmt.Errorf("grouping: item %d in multiple groups", idx)
			}
			used[idx] = true
			items = append(items, p.Items[idx])
		}
		want := p.Measure(cs, items)
		if want.TTP < p.P-1e-12 {
			return fmt.Errorf("grouping: group %d TTP %.6f < P %.6f", gi, want.TTP, p.P)
		}
		if g.MaxNodes != want.MaxNodes {
			return fmt.Errorf("grouping: group %d MaxNodes %d, recomputed %d", gi, g.MaxNodes, want.MaxNodes)
		}
		if diff := g.TTP - want.TTP; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("grouping: group %d TTP %.9f, recomputed %.9f", gi, g.TTP, want.TTP)
		}
		if g.MaxActive != want.MaxActive {
			return fmt.Errorf("grouping: group %d MaxActive %d, recomputed %d", gi, g.MaxActive, want.MaxActive)
		}
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("grouping: item %d (%s) unassigned", i, p.Items[i].ID)
		}
	}
	return nil
}
