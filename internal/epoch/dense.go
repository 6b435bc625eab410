package epoch

// DenseSet is the count function of the one tenant-group a T_best search has
// open, kept as one counter per epoch. A preview, a commit and a patch each
// read a tenant's own epochs straight off the counters: no galloping through
// a segment list and no rewrite of one. Add also keeps the epochs at the top
// two count levels as span lists, so a bounded preview can read a losing
// candidate's key head without a walk. The price is 4 bytes per epoch for as
// long as the set lives (0.8 MB on a 7-day grid of 3 s epochs), which suits
// one set per solver worker, not the thousands of live groups the online
// placer and FFD keep in CountSets. The counters are int32: members that all
// share one epoch hold the TTP at (D-1)/D however many they are, so a
// narrower counter could overflow on a reachable input.
type DenseSet struct {
	histogram
	cnt     []int32 // cnt[x] = active members on epoch x
	members []Spans // Add's spans since the last Reset; PatchTransition reads the last
	up      []int64 // Add's transition scratch
	// sub lists the epochs at count MaxCount()-1 while the maximum is 2 or
	// more, the second level of the bounded preview's head check.
	sub Spans
	// Add's scratch for the level views.
	run, diff, spare Spans
}

// NewDenseSet returns an empty count function over d epochs.
func NewDenseSet(d int64) *DenseSet {
	return &DenseSet{histogram: newHistogram(d), cnt: make([]int32, d)}
}

// Reset empties the set by clearing just the epochs its members cover.
func (ds *DenseSet) Reset() {
	for _, sp := range ds.members {
		for _, s := range sp {
			clear(ds.cnt[s.S:s.E])
		}
	}
	ds.members = ds.members[:0]
	ds.sub = ds.sub[:0]
	ds.reset()
}

// Add commits sp into the count function. sp must be valid and within
// [0, D), and must not change while the set holds it (until Reset).
func (ds *DenseSet) Add(sp Spans) {
	up := ds.prepBuf(ds.up)
	for _, s := range sp {
		w := ds.cnt[s.S:s.E]
		for i, c := range w {
			up[c]++
			w[i] = c + 1
		}
	}
	ds.up = up
	ds.members = append(ds.members, sp)
	old := ds.MaxCount()
	ds.hist = append(ds.hist, 0) // room for a new maximum; trimmed below
	for c, u := range up {
		if c > 0 {
			ds.hist[c] -= u
		}
		ds.hist[c+1] += u
	}
	ds.trim()
	ds.n++
	// Only sp's epochs changed level, so a level is now its old epochs less
	// sp's, plus sp's epochs at it.
	m := ds.MaxCount()
	below, at := ds.sub, ds.top // the old levels m-1 and m
	if m > old {
		below, at = ds.top, nil
	}
	if m >= 2 {
		ds.setLevel(&ds.sub, below, sp, m-1)
	}
	ds.setLevel(&ds.top, at, sp, m)
}

// setLevel sets *lv to the epochs of base outside sp plus sp's epochs at
// count c.
func (ds *DenseSet) setLevel(lv *Spans, base, sp Spans, c int) {
	ds.diff = appendDiff(ds.diff[:0], base, sp)
	ds.run = ds.run[:0]
	for _, s := range sp {
		for x := s.S; x < s.E; x++ {
			if ds.cnt[x] != int32(c) {
				continue
			}
			if n := len(ds.run); n > 0 && ds.run[n-1].E == x {
				ds.run[n-1].E++
			} else {
				ds.run = append(ds.run, Span{x, x + 1})
			}
		}
	}
	ds.spare = appendUnion(ds.spare[:0], ds.diff, ds.run)
	*lv, ds.spare = ds.spare, *lv
}

// PreviewInto computes the transition vector of adding sp without modifying
// the set, in buf when its capacity suffices. sp must be valid and within
// [0, D).
func (ds *DenseSet) PreviewInto(sp Spans, buf []int64) Transition {
	up := ds.prepBuf(buf)
	for _, s := range sp {
		for _, c := range ds.cnt[s.S:s.E] {
			up[c]++
		}
	}
	return Transition{Up: up}
}

// PreviewBounded is CountSet.PreviewBounded's contract on the dense set: a
// head check on the top two count levels, then the full walk.
func (ds *DenseSet) PreviewBounded(sp Spans, buf []int64, bestMax int, bestUp int64) (tr Transition, keyMax int, keyUp int64, ok bool) {
	if keyMax, keyUp, lost := ds.headLoses(sp, ds.sub, bestMax, bestUp); lost {
		return Transition{Up: buf}, keyMax, keyUp, false
	}
	return ds.bounded(ds.PreviewInto(sp, buf), bestMax, bestUp)
}

// PatchTransition takes a transition tr that was exact for sp against the
// state the set had before the most recent Add, and makes it exact against
// the current state. That Add raised the count by one on its own epochs, so tr
// changes only where sp meets them: an epoch there at current count c used to
// count in Up[c-1] and now counts in Up[c]. The returned Up may be a grown
// copy of tr.Up.
func (ds *DenseSet) PatchTransition(sp Spans, tr Transition) Transition {
	up := tr.Up
	for len(up) <= ds.MaxCount() {
		up = append(up, 0)
	}
	added := ds.members[len(ds.members)-1]
	for i, j := 0, 0; i < len(sp) && j < len(added); {
		a, b := sp[i], added[j]
		if lo, hi := max(a.S, b.S), min(a.E, b.E); lo < hi {
			for _, c := range ds.cnt[lo:hi] {
				up[c-1]--
				up[c]++
			}
		}
		if a.E <= b.E {
			i++
		} else {
			j++
		}
	}
	return Transition{Up: up}
}
