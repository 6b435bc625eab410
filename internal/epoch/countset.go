package epoch

import (
	"fmt"
	"math/bits"
)

// CountSet maintains the per-epoch active-tenant count of a tenant-group as
// tenants are added, without storing one slot per epoch. It supports the two
// queries the grouping heuristic needs:
//
//   - Preview(spans): the transition vector of adding a candidate tenant,
//     from which the new active-count histogram, the new maximum, and the new
//     TTP all follow in O(max count);
//   - Add(spans): commit the candidate;
//
// and one for the audits that re-derive a finished group from its members:
//
//   - Fill(members): the set all the members' Adds would build, in one sweep.
//
// Internally the count function is a sorted list of segments with count ≥ 1;
// epochs outside every segment have count 0. Its cost follows the spans
// involved, not the epochs, so it suits the many live sets of the online
// placer, FFD and the exact solver; the T_best search's one open group is a
// DenseSet.
type CountSet struct {
	histogram
	segs  []countSeg // disjoint, sorted, count ≥ 1, no equal-count adjacency
	spare []countSeg // retired segment buffer, reused by the next Add
	// top lists the epochs at count MaxCount() for the bounded preview's head
	// check; every mutation rebuilds it.
	top Spans
	// Fill's scratch, made by the first Fill and all zero between calls:
	// diff[x] is the number of member spans that start at epoch x minus the
	// number that end there, mark has a bit set for every x that has either.
	diff []int32
	mark []uint64
}

type countSeg struct {
	s, e int32
	c    int32
}

// NewCountSet returns an empty count function over d epochs.
func NewCountSet(d int64) *CountSet {
	return &CountSet{histogram: newHistogram(d)}
}

// Reset empties the count function, retaining internal buffers for reuse.
func (cs *CountSet) Reset() {
	cs.segs = cs.segs[:0]
	cs.top = cs.top[:0]
	cs.reset()
}

// Preview computes the transition vector of adding sp without modifying the
// set. sp must be valid (see Spans.Valid) and within [0, D).
func (cs *CountSet) Preview(sp Spans) Transition {
	return cs.preview(sp, make([]int64, cs.MaxCount()+1))
}

// PreviewInto is Preview with a caller-provided scratch buffer: the returned
// transition's Up aliases buf when buf has sufficient capacity, so a search
// loop can evaluate candidates without per-candidate heap allocations.
func (cs *CountSet) PreviewInto(sp Spans, buf []int64) Transition {
	return cs.preview(sp, cs.prepBuf(buf))
}

// PreviewBounded is PreviewInto behind a head check against an incumbent
// candidate under the T_best rule (see CompareTransitions): bestMax is the
// incumbent's resulting maximum active count and bestUp the number of epochs
// its transition raises into that maximum (its Up[bestMax-1]); a negative
// bestMax means no incumbent, otherwise bestMax must be at least MaxCount().
// A candidate whose overlap with the top count level already loses (see
// headChecks and headLoses) is turned away before the full merge walk. ok
// reports whether sp's key head does not lose: true with the exact
// transition; false with tr only carrying a buffer back. Either way (keyMax,
// keyUp) is sp's exact key head, as NewTopUp would report it.
func (cs *CountSet) PreviewBounded(sp Spans, buf []int64, bestMax int, bestUp int64) (tr Transition, keyMax int, keyUp int64, ok bool) {
	if cs.headChecks(bestMax) {
		if keyMax, keyUp, lost := cs.headLoses(sp.Overlap(cs.top), 0, bestMax, bestUp); lost {
			return Transition{Up: buf}, keyMax, keyUp, false
		}
	}
	return cs.bounded(cs.PreviewInto(sp, buf), bestMax, bestUp)
}

// seekSeg returns the index of the first segment at or after from that ends
// after epoch x. Callers walk ascending spans, so the target is usually near
// the cursor: the search gallops out from it before bisecting.
func seekSeg(segs []countSeg, from int, x int32) int {
	lo, hi := from, from
	for step := 1; hi < len(segs) && segs[hi].e <= x; step *= 2 {
		lo = hi + 1
		hi += step
	}
	if hi > len(segs) {
		hi = len(segs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].e <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// preview is the merge walk behind every Preview*. up must be zeroed with
// length MaxCount()+1.
func (cs *CountSet) preview(sp Spans, up []int64) Transition {
	segs := cs.segs
	si := 0 // first segment that could overlap the current span
	for _, s := range sp {
		si = seekSeg(segs, si, s.S)
		cur := s.S
		for k := si; cur < s.E; k++ {
			if k >= len(segs) || segs[k].s >= s.E {
				up[0] += int64(s.E - cur) // the rest of the span is idle
				break
			}
			seg := segs[k]
			if seg.s > cur {
				up[0] += int64(seg.s - cur) // idle gap before the segment
				cur = seg.s
			}
			hi := s.E
			if seg.e < hi {
				hi = seg.e
			}
			up[seg.c] += int64(hi - cur)
			cur = hi
		}
	}
	return Transition{Up: up}
}

// Add commits sp into the count function. sp must be valid and within
// [0, D).
func (cs *CountSet) Add(sp Spans) {
	cs.n++
	cs.shift(sp, 1)
}

// Remove is the inverse of Add: it commits the departure of a previously
// added activity, decrementing the count on sp's epochs. Every epoch of sp
// must currently have count ≥ 1 — callers remove exactly the spans they
// added (the online control loop removes a tenant's running profile, the
// union of its planned spans and every streamed delta).
func (cs *CountSet) Remove(sp Spans) {
	cs.n--
	cs.shift(sp, -1)
}

// Fill makes cs the count function of members, as Reset followed by one Add
// per member would — the same segments, histogram, level view and Size — but
// in one sweep: every span boundary is tallied into a difference array over
// the horizon, and a walk over the bitmap of touched epochs turns the running
// sum into segments, so the cost is O(D/64 + total spans) instead of one merge
// of the whole list per member. Every member must be valid and within [0, D).
// The scratch is 4 bytes per epoch, allocated by a set's first Fill and wiped
// as it is read; a set that is only ever Added to never holds it.
func (cs *CountSet) Fill(members []Spans) {
	cs.Reset()
	cs.n = len(members)
	if cs.diff == nil {
		cs.diff = make([]int32, cs.d+1)
		cs.mark = make([]uint64, cs.d/64+1)
	}
	diff, mark := cs.diff, cs.mark
	for _, sp := range members {
		for _, s := range sp {
			diff[s.S]++
			diff[s.E]--
			mark[s.S>>6] |= 1 << (s.S & 63)
			mark[s.E>>6] |= 1 << (s.E & 63)
		}
	}
	segs, hist := cs.segs, cs.hist
	var c, from int32 // the running count and the epoch it has held since
	for w, word := range mark {
		if word == 0 {
			continue
		}
		mark[w] = 0
		for ; word != 0; word &= word - 1 {
			x := int32(w<<6 + bits.TrailingZeros64(word))
			step := diff[x]
			if step == 0 {
				continue // as many spans end here as start: not a boundary
			}
			diff[x] = 0
			if c > 0 {
				segs = append(segs, countSeg{from, x, c})
				for int(c) >= len(hist) {
					hist = append(hist, 0)
				}
				hist[c] += int64(x - from)
			}
			c, from = c+step, x
		}
	}
	cs.segs, cs.hist = segs, hist
	cs.viewTop()
}

// shift moves the count of every epoch of sp by d (+1 or −1) in one merge
// walk. Segments between two spans are untouched and copied as whole runs;
// the histogram is maintained on exactly the epochs whose count moves; and
// the retired segment list is kept as the spare buffer for the next commit,
// so a commit allocates only when the list outgrows both buffers.
func (cs *CountSet) shift(sp Spans, d int32) {
	if len(sp) == 0 {
		return
	}
	segs := cs.segs
	out := cs.spare[:0]
	if need := len(segs) + 2*len(sp); cap(out) < need {
		out = make([]countSeg, 0, 2*need) // headroom: a growing set allocates O(log) times
	}
	hist := cs.hist
	if d > 0 {
		hist = append(hist, 0) // room for a new maximum; trimmed below
	}
	si := 0
	for _, s := range sp {
		// The run of segments that end before this span starts.
		j := seekSeg(segs, si, s.S)
		out = appendRun(out, segs[si:j])
		si = j
		// A segment may straddle the span start: split it.
		if si < len(segs) && segs[si].s < s.S {
			out = appendSeg(out, countSeg{segs[si].s, s.S, segs[si].c})
			segs[si].s = s.S // consume the head; remainder handled below
		}
		for cur := s.S; cur < s.E; {
			// The piece [cur, hi) sits at one count c: 0 in a gap between
			// segments, else the count of the segment it lies in.
			hi, c := s.E, int32(0)
			switch {
			case si < len(segs) && segs[si].s <= cur:
				c = segs[si].c
				if segs[si].e <= hi {
					hi = segs[si].e
					si++
				} else {
					segs[si].s = hi // tail of the straddling segment
				}
			case d < 0:
				panic(fmt.Sprintf("epoch: Remove of epochs at count 0 (at epoch %d)", cur))
			case si < len(segs) && segs[si].s < hi:
				hi = segs[si].s
			}
			n := int64(hi - cur)
			if c > 0 {
				hist[c] -= n
			}
			if c += d; c > 0 {
				hist[c] += n
				out = appendSeg(out, countSeg{cur, hi, c})
			}
			cur = hi
		}
	}
	out = appendRun(out, segs[si:])
	cs.spare = segs[:0] // retire the old list as the next commit's buffer
	cs.segs = out
	cs.hist = hist
	cs.trim()
	cs.viewTop()
}

// viewTop rebuilds the view of the top count level from the segment list.
func (cs *CountSet) viewTop() {
	m := int32(cs.MaxCount())
	cs.top = cs.top[:0]
	for _, g := range cs.segs {
		if g.c == m {
			cs.top = append(cs.top, Span{g.s, g.e})
		}
	}
}

// appendSeg appends g to dst, extending dst's last segment instead when g
// continues it at the same count.
func appendSeg(dst []countSeg, g countSeg) []countSeg {
	if n := len(dst); n > 0 && dst[n-1].e == g.s && dst[n-1].c == g.c {
		dst[n-1].e = g.e
		return dst
	}
	return append(dst, g)
}

// appendRun appends a run of consecutive segments to dst. Only the run's
// first segment can continue dst's last one; the rest were already
// neighbours of each other.
func appendRun(dst, run []countSeg) []countSeg {
	if len(run) == 0 {
		return dst
	}
	return append(appendSeg(dst, run[0]), run[1:]...)
}

// Clone returns a deep copy of the count set, without Fill's scratch.
func (cs *CountSet) Clone() *CountSet {
	out := &CountSet{histogram: histogram{d: cs.d, n: cs.n}}
	out.segs = append([]countSeg(nil), cs.segs...)
	out.hist = append([]int64(nil), cs.hist...)
	out.top = append(Spans(nil), cs.top...)
	return out
}

// Counts expands the count function into a dense []int32 of length D. For
// tests and diagnostics only.
func (cs *CountSet) Counts() []int32 {
	out := make([]int32, cs.d)
	for _, seg := range cs.segs {
		for i := seg.s; i < seg.e; i++ {
			out[i] = seg.c
		}
	}
	return out
}
