package grouping

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/epoch"
	"repro/internal/par"
)

// TwoStep runs the paper's two-step tenant-grouping heuristic (Algorithm 2)
// with the default Solver.
//
// Step 1 puts tenants requesting the same number of nodes into the same
// initial group — the total node count of a cluster design is dictated by
// its largest tenant, so mixing sizes wastes the smaller tenants' savings.
//
// Step 2 splits each initial group into tenant-groups: starting from an
// empty group, it repeatedly adds the tenant T_best that minimizes the
// increase in time percentage of the maximum number of active tenants
// (ties broken one activity level down, then by least active time, then by
// input order — reproducing the Fig 5.3 trace), until adding T_best would
// drop the group's TTP below P; then it closes the group and opens the next.
// Note that on an empty group this selection rule degenerates to "insert the
// least active tenant first", exactly as the thesis describes.
func TwoStep(p *Problem) (*Solution, error) { return Solver{}.TwoStep(p) }

// Solver configures the scalable T_best search. Every configuration produces
// output byte-identical to the reference implementation (reference_test.go) —
// the optimizations below only change how fast T_best is found, never which
// tenant it is:
//
//   - candidates are scanned in ascending active-epoch order and the scan
//     short-circuits on the first zero-overlap candidate, whose resulting
//     histogram is unbeatable under the top-down lexicographic rule;
//   - a candidate's transition is cached across insertions and only
//     recomputed when its spans overlap the tenant just committed (the only
//     event that can change it), so steady-state rounds are comparison-only;
//   - the open group is an epoch.DenseSet, one counter per epoch, so a
//     preview, a commit and a patch are straight loops over the epochs they
//     touch;
//   - a fresh preview first computes the candidate's exact key head from the
//     group's top two count levels (PreviewBounded) and walks the candidate's
//     epochs only when that head does not already lose to the incumbent; a
//     losing head is remembered, so provably-losing candidates are skipped
//     without another look;
//   - all transitions live in per-candidate scratch buffers owned by the
//     search, so pickBest performs no steady-state heap allocations;
//   - independent size classes are solved concurrently, the most populous
//     first, each worker reusing one DenseSet, and spliced back in
//     descending node-count order.
type Solver struct {
	// Workers is the number of size classes solved at once. 0 means
	// runtime.GOMAXPROCS(0); 1 solves them one after the other on the
	// calling goroutine. The plan is the same at any value.
	Workers int
}

// TwoStep solves p under the solver's configuration.
func (s Solver) TwoStep(p *Problem) (*Solution, error) {
	if s.Workers < 0 {
		return nil, fmt.Errorf("grouping: Solver.Workers=%d", s.Workers)
	}
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
	sizes := sortedSizesDesc(bySize)

	// Step 2 per initial group. Size classes are independent subproblems:
	// solve up to Workers of them at once, the most populous first, and splice
	// the per-class groups back together in descending-size order whatever
	// order they finished in.
	classGroups := make([][]Group, len(sizes))
	order := launchOrder(sizes, bySize)
	newSet := func() *epoch.DenseSet { return epoch.NewDenseSet(p.D) }
	par.Each(s.Workers, len(order), newSet, func(ds *epoch.DenseSet, i int) {
		ci := order[i]
		classGroups[ci] = solveClass(p, bySize[sizes[ci]], ds)
	})
	for _, gs := range classGroups {
		sol.Groups = append(sol.Groups, gs...)
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// sortedSizesDesc returns the node-count keys in descending order.
func sortedSizesDesc(bySize map[int][]int) []int {
	sizes := make([]int, 0, len(bySize))
	for n := range bySize {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// launchOrder returns the indices into sizes (descending node counts) in the
// order their classes are started: most populous first, ties in sizes' own
// order. A class's solve time grows faster than its population, so the
// largest class is the critical path and must not be the one left waiting for
// a worker.
func launchOrder(sizes []int, bySize map[int][]int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(bySize[sizes[order[a]]]) > len(bySize[sizes[order[b]]])
	})
	return order
}

// finishGroup assembles a Group from its committed members and count set
// (the search's DenseSet, or the reference solver's CountSet).
func finishGroup(p *Problem, cs interface {
	TTP(r int) float64
	MaxCount() int
}, members []int) Group {
	maxNodes := 0
	for _, idx := range members {
		if p.Items[idx].Nodes > maxNodes {
			maxNodes = p.Items[idx].Nodes
		}
	}
	return Group{
		Items:     members,
		MaxNodes:  maxNodes,
		TTP:       cs.TTP(p.R),
		MaxActive: cs.MaxCount(),
	}
}

// solveClass runs step 2 over one size-homogeneous initial group, building
// each group in ds.
func solveClass(p *Problem, items []int, ds *epoch.DenseSet) []Group {
	se := newSearch(p, items, ds)
	// order holds the positions (into se.cands) still unassigned.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	var groups []Group
	for len(order) > 0 {
		var g Group
		g, order = se.packOneGroup(order)
		groups = append(groups, g)
	}
	return groups
}

// Cache states of a candidate's transition.
const (
	cacheNone    = uint8(iota) // no usable information; must preview
	cacheFull    = uint8(1)    // tr is the candidate's exact transition
	cacheAborted = uint8(2)    // the key head lost; (pM, pU) lower-bounds the final key
)

// candidate is one unassigned tenant of a size class, with its cached
// evaluation state. A candidate's transition against the group under
// construction can only change when the group gains a tenant whose spans
// overlap the candidate's, so between such events the cached transition (or
// the cached abort bound) is reused as-is.
type candidate struct {
	idx    int   // index into Problem.Items
	active int64 // ActiveEpochs, the scan sort key
	spans  epoch.Spans
	sLo    int32 // spans bounding box [sLo, sHi); sLo == sHi when spans empty
	sHi    int32

	state uint8
	buf   []int64          // scratch backing tr.Up, owned by this candidate
	tr    epoch.Transition // valid when state == cacheFull
	// top is tr's highest level with mass (-1 when tr raises nothing), kept
	// current alongside tr: it is re-read after every patch.
	top int
	// (pM, pU) is the candidate's key head in drift-free form (see
	// epoch.DenseSet.NewTopUp) — the new maximum and the epochs raised into it.
	// When state == cacheFull it is exact, refreshed in O(1) after every
	// commit from top and the patched transition. When state == cacheAborted
	// it is the exact head at the moment the candidate was last evaluated (a
	// bounded preview's head check, or a head-of-key loss that demoted it);
	// both components are then monotone lower bounds on the candidate's
	// future key head for the rest of the group, because counts only grow
	// while tenants join: the maximum cannot shrink, and an epoch raised into
	// the maximum can only leave it by pushing the maximum higher. The pair
	// therefore keeps skipping the candidate across rounds without any
	// per-Add maintenance.
	pM int
	pU int64
}

// byActive sorts candidates ascending by active epochs, stable on input
// order (a concrete sort.Interface: the reflection-based sort.SliceStable
// showed up in solver profiles).
type byActive []candidate

func (s byActive) Len() int           { return len(s) }
func (s byActive) Less(a, b int) bool { return s[a].active < s[b].active }
func (s byActive) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }

// search is the per-class T_best search state: the group under construction's
// count function and the candidates with their cached transitions. One
// goroutine owns it.
type search struct {
	p     *Problem
	cs    *epoch.DenseSet
	cands []candidate
}

func newSearch(p *Problem, items []int, ds *epoch.DenseSet) *search {
	se := &search{
		p:     p,
		cs:    ds,
		cands: make([]candidate, len(items)),
	}
	for i, idx := range items {
		it := p.Items[idx]
		c := candidate{idx: idx, active: it.ActiveEpochs(), spans: it.Spans}
		if n := len(it.Spans); n > 0 {
			c.sLo, c.sHi = it.Spans[0].S, it.Spans[n-1].E
		}
		se.cands[i] = c
	}
	// Ascending active-epoch order, stable on the input order. This is what
	// makes the pruning sound: the first zero-overlap candidate found is the
	// globally best one (any candidate scanned earlier is at most as
	// active), and histogram ties can only happen between equally active
	// candidates, where the stable order reproduces the reference
	// first-in-input-order tie-break.
	sort.Stable(byActive(se.cands))
	return se
}

// packOneGroup fills a single tenant-group from the order slice and returns
// it together with the candidates left over: per-round T_best scans over the
// candidate list, with every cached-exact transition repaired in place after
// each commit.
func (se *search) packOneGroup(order []int) (Group, []int) {
	se.cs.Reset()
	se.seed(order)
	var members []int
	for len(order) > 0 {
		best, tr := se.pickBest(order)
		c := &se.cands[order[best]]
		if len(members) > 0 && se.cs.NewTTP(se.p.R, tr) < se.p.P {
			break // Algorithm 2 line 9: T_best no longer fits; close the group.
		}
		// The first member always enters: a single tenant has max count 1 ≤ R.
		members = append(members, c.idx)
		order = se.commit(best, order)
	}
	return finishGroup(se.p, se.cs, members), order
}

// seed primes every candidate's cache against the empty count function, where
// its transition is trivially exact: all of its active epochs rise 0 → 1.
// Starting exact means the incremental patches after each Add keep every
// transition exact for the whole group — the hot path never runs a full
// preview walk at all.
func (se *search) seed(order []int) {
	for _, pos := range order {
		c := &se.cands[pos]
		if cap(c.buf) < 1 {
			c.buf = make([]int64, 1)
		}
		c.buf = c.buf[:1]
		c.buf[0] = c.active
		c.tr = epoch.Transition{Up: c.buf}
		c.state = cacheFull
		if c.active > 0 {
			c.top, c.pM, c.pU = 0, 1, c.active
		} else {
			c.top, c.pM, c.pU = -1, 0, 0
		}
	}
}

// commit adds order[best] to the group under construction, removes it from
// order, and repairs the surviving candidates' caches. Committing changes the
// count function only inside the new member's spans, so a cached full
// transition is repaired by patching the overlap region (skipped outright
// when the bounding boxes are disjoint) instead of re-previewed, and its key
// head is refreshed from the patched top level and the possibly-raised group
// maximum. Cached abort bounds stay valid untouched: counts only
// grow within a group, so the (new max, epochs at max) key they lower-bound
// only grows too.
func (se *search) commit(best int, order []int) []int {
	c := &se.cands[order[best]]
	se.cs.Add(c.spans)
	order = append(order[:best], order[best+1:]...)
	if c.sLo < c.sHi {
		aLo, aHi := c.sLo, c.sHi
		mc := se.cs.MaxCount()
		for _, pos := range order {
			cc := &se.cands[pos]
			if cc.state != cacheFull {
				continue
			}
			if cc.sHi > aLo && cc.sLo < aHi {
				cc.tr = se.cs.PatchTransition(cc.spans, cc.tr)
				cc.buf = cc.tr.Up
				cc.top = cc.tr.Top()
			}
			pm := mc
			if cc.top+1 > pm {
				pm = cc.top + 1
			}
			cc.pM, cc.pU = pm, 0
			if pm >= 1 && pm-1 < len(cc.tr.Up) {
				cc.pU = cc.tr.Up[pm-1]
			}
		}
	}
	return order
}

// pickBest returns the position within order of T_best, together with its
// transition (so the caller never re-previews the winner). The transition
// aliases the winning candidate's buffer and stays valid until that candidate
// is re-previewed.
//
// The incumbent is tracked as (bestMax, bestUp): its resulting maximum active
// count and the epochs raised into that maximum — the head of the comparison
// key. A candidate whose cached head already exceeds it is discarded without
// a look; one whose fresh head does (PreviewBounded) without a walk.
func (se *search) pickBest(order []int) (int, epoch.Transition) {
	cs := se.cs
	best := -1 // position in order of the incumbent; -1 before the first
	var bestTr epoch.Transition
	var bestMax int
	var bestUp int64

	// Pass 1: cached-exact candidates only — O(1) key reads, no walks. This
	// builds the strongest available incumbent before any preview runs, so
	// pass 2 can skip nearly every stale candidate, or reject it on its head,
	// instead of re-walking it against a still-weak early incumbent.
	for i, pos := range order {
		c := &se.cands[pos]
		if c.state != cacheFull {
			continue
		}
		if c.top <= 0 {
			// Zero overlap is unbeatable: a non-zero-overlap incumbent raised
			// some epoch past count 1, so its histogram is strictly larger at
			// some level ≥ 2 that this candidate leaves untouched; and among
			// zero-overlap candidates the ascending scan order meets the
			// winner (least active, then first in input order) first. Such
			// candidates are never demoted (their key head is minimal), so
			// pass 1 always sees them.
			return i, c.tr
		}
		// The candidate's exact key head, maintained by the patch loop.
		cM, cU := c.pM, c.pU
		if best < 0 {
			best, bestTr = i, c.tr
			bestMax, bestUp = cM, cU
			continue
		}
		// Head-of-key rejection before the full comparison. The loser is
		// demoted to the bounded state: its exact head is a valid lower
		// bound on its key for the rest of the group (keys only grow), so
		// it can be skipped in O(1) next round and — crucially — no longer
		// needs to be patched after every Add. It pays a fresh bounded
		// preview if it ever becomes competitive again.
		if cM > bestMax || (cM == bestMax && cU > bestUp) {
			c.state = cacheAborted
			c.pM, c.pU = cM, cU
			continue
		}
		if cs.CompareTransitions(c.tr, bestTr) < 0 {
			best, bestTr = i, c.tr
			bestMax, bestUp = cM, cU
		}
		// On a tie the incumbent stands: the ascending scan meets candidates
		// in input order — the reference tie-break.
	}

	// Pass 2: stale candidates, evaluated against the pass-1 incumbent.
	for i, pos := range order {
		c := &se.cands[pos]
		if c.state == cacheFull {
			continue
		}
		if best >= 0 && (c.pM > bestMax || (c.pM == bestMax && c.pU > bestUp)) {
			// The remembered head still exceeds the incumbent's: the
			// candidate's final key can only be larger. Skip without a look.
			continue
		}
		bm, bt := bestMax, bestUp
		if best < 0 {
			bm = -1 // no incumbent yet: the preview must run to completion
		}
		tr, cM, cU, ok := cs.PreviewBounded(c.spans, c.buf, bm, bt)
		c.buf = tr.Up
		c.pM, c.pU = cM, cU
		if !ok {
			// Remember the head. It strictly exceeds the incumbent's (that is
			// why it lost), so it is stronger than whatever bound previously
			// failed to skip this candidate.
			c.state = cacheAborted
			continue
		}
		c.tr, c.top, c.state = tr, tr.Top(), cacheFull
		if best < 0 {
			best, bestTr = i, tr
			bestMax, bestUp = cM, cU
			continue
		}
		// Unlike pass 1, a tie here must fall to whichever candidate comes
		// first in scan-position order — the incumbent may sit at a higher
		// position than this pass-2 candidate.
		if cmp := cs.CompareTransitions(c.tr, bestTr); cmp < 0 || (cmp == 0 && i < best) {
			best, bestTr = i, c.tr
			bestMax, bestUp = cM, cU
		}
	}
	return best, bestTr
}
