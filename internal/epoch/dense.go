package epoch

import (
	"math/bits"
	"slices"
)

// DenseSet is the count function of the one tenant-group a T_best search has
// open, kept as one counter per epoch, so a preview, a commit and a reset
// walk a tenant's epochs straight off the counters. Bitmaps of the last
// member's epochs and of the top two count levels let a patch and the bounded
// preview's head check meet a candidate's 64-epoch words one AND at a time.
// The price is 4 bytes plus 3 bits per epoch for as long as the set lives
// (0.9 MB on a 7-day grid of 3 s epochs): one set per solver worker, not one
// per group, as FFD and the exact solver keep CountSets. The
// counters are int32: members that all share one epoch hold the TTP at
// (D-1)/D however many they are, so a narrower counter could overflow on a
// reachable input.
type DenseSet struct {
	histogram
	cnt     []int32  // cnt[x] = active members on epoch x
	members []member // Add's members since the last Reset
	up      []int64  // Add's transition scratch
	// Bit x of last is set when the last member added is active on epoch x;
	// of top, when x is at count MaxCount(); of sub, when x is at
	// MaxCount()-1 ≥ 1. Bit i of sum is set when word i of top or sub is not
	// zero. Each is cleared only over members' words.
	last, top, sub, sum []uint64
}

// member is one added tenant: spans for the counters, words for the bitmaps.
type member struct {
	sp Spans
	ws []Word
}

// NewDenseSet returns an empty count function over d epochs.
func NewDenseSet(d int64) *DenseSet {
	n := (d + 63) / 64
	return &DenseSet{
		histogram: newHistogram(d),
		cnt:       make([]int32, d),
		last:      make([]uint64, n),
		top:       make([]uint64, n),
		sub:       make([]uint64, n),
		sum:       make([]uint64, (n+63)/64),
	}
}

// Reset empties the set by clearing just the epochs its members cover.
func (ds *DenseSet) Reset() {
	for _, mb := range ds.members {
		for _, s := range mb.sp {
			clear(ds.cnt[s.S:s.E])
		}
		for _, w := range mb.ws {
			ds.last[w.I], ds.top[w.I], ds.sub[w.I], ds.sum[w.I>>6] = 0, 0, 0, 0
		}
	}
	ds.members = ds.members[:0]
	ds.reset()
}

// Add commits sp, whose words are ws (sp.AppendWords(nil)), into the count
// function. sp must be valid and within [0, D), and neither may change while
// the set holds them (until Reset).
func (ds *DenseSet) Add(sp Spans, ws []Word) {
	m := ds.MaxCount()
	if len(ws) > 0 && (m == 0 || slices.ContainsFunc(ws, func(w Word) bool { return ds.top[w.I]&w.B != 0 })) {
		// The maximum rises to m+1: level m becomes the second level, and the
		// old second level, which only members' epochs can hold, is cleared
		// to become the top; sum then flags just the old top's words.
		for _, mb := range ds.members {
			for _, w := range mb.ws {
				bit := uint64(1) << (w.I & 63)
				ds.sub[w.I], ds.sum[w.I>>6] = 0, ds.sum[w.I>>6]&^bit
				if ds.top[w.I] != 0 {
					ds.sum[w.I>>6] |= bit
				}
			}
		}
		ds.top, ds.sub = ds.sub, ds.top
		m++
	}
	// Only sp's epochs change count: those reaching m join the top level and
	// leave the second, those reaching m-1 join the second. Neither empties a
	// level word, so sum only gains bits.
	up := ds.prepBuf(ds.up)
	lo := int32(m - 1)
	for _, s := range sp {
		w := ds.cnt[s.S:s.E]
		for i, c := range w {
			up[c]++
			c++
			w[i] = c
			if c >= lo {
				x := s.S + int32(i)
				bit := uint64(1) << (x & 63)
				ds.sum[x>>12] |= 1 << (x >> 6 & 63)
				if c == lo {
					ds.sub[x>>6] |= bit
				} else {
					ds.top[x>>6] |= bit
					ds.sub[x>>6] &^= bit
				}
			}
		}
	}
	ds.up = up
	if n := len(ds.members); n > 0 {
		for _, w := range ds.members[n-1].ws {
			ds.last[w.I] = 0
		}
	}
	for _, w := range ws {
		ds.last[w.I] |= w.B
	}
	ds.members = append(ds.members, member{sp, ws})
	ds.hist = append(ds.hist, 0) // room for a new maximum; trimmed below
	for c, u := range up {
		if c > 0 {
			ds.hist[c] -= u
		}
		ds.hist[c+1] += u
	}
	ds.trim()
	ds.n++
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

// PreviewBounded is CountSet.PreviewBounded's contract on the dense set, for
// sp with words ws and their blocks bs (AppendBlocks): a head check that
// counts ws's epochs on the top two count levels, reading only the words
// whose blocks meet sum, then the full walk.
func (ds *DenseSet) PreviewBounded(sp Spans, ws, bs []Word, buf []int64, bestMax int, bestUp int64) (tr Transition, keyMax int, keyUp int64, ok bool) {
	if ds.headChecks(bestMax) {
		var top, sub, at int // at indexes the first of b's words in ws
		for _, b := range bs {
			for m := ds.sum[b.I] & b.B; m != 0; m &= m - 1 {
				w := ws[at+bits.OnesCount64(b.B&(1<<bits.TrailingZeros64(m)-1))]
				top += bits.OnesCount64(ds.top[w.I] & w.B)
				sub += bits.OnesCount64(ds.sub[w.I] & w.B)
			}
			at += bits.OnesCount64(b.B)
		}
		if keyMax, keyUp, lost := ds.headLoses(int64(top), int64(sub), bestMax, bestUp); lost {
			return Transition{Up: buf}, keyMax, keyUp, false
		}
	}
	return ds.bounded(ds.PreviewInto(sp, buf), bestMax, bestUp)
}

// PatchTransition takes a transition tr that was exact for a candidate with
// words ws against the state the set had before the most recent Add, and
// makes it exact against the current state. That Add raised the count by one
// on its own epochs, so tr changes only where ws meets them — found one AND
// per word: an epoch there at current count c used to count in Up[c-1] and
// now counts in Up[c]. The returned Up may be a grown copy of tr.Up.
func (ds *DenseSet) PatchTransition(ws []Word, tr Transition) Transition {
	up := tr.Up
	for len(up) <= ds.MaxCount() {
		up = append(up, 0)
	}
	for _, w := range ws {
		for b := ds.last[w.I] & w.B; b != 0; {
			lo := bits.TrailingZeros64(b)
			n := bits.TrailingZeros64(^(b >> lo)) // the run of set bits from lo
			x := int(w.I)<<6 + lo
			for _, c := range ds.cnt[x : x+n] {
				up[c-1]--
				up[c]++
			}
			b &^= (^uint64(0) >> (64 - n)) << lo
		}
	}
	return Transition{Up: up}
}
