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
// epochs outside every segment have count 0.
type CountSet struct {
	d     int64      // total epochs in the horizon
	segs  []countSeg // disjoint, sorted, count ≥ 1, no equal-count adjacency
	hist  []int64    // hist[c] = number of epochs with count c, c ≥ 1
	n     int        // number of activities added
	spare []countSeg // retired segment buffer, reused by the next Add
	// lvl[i] lists the segments at count MaxCount()-i, the two levels that
	// decide the head of a T_best key. Add, Remove and Reset rebuild it;
	// previews only read it.
	lvl [2]Spans
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
	if d <= 0 {
		panic(fmt.Sprintf("epoch: non-positive epoch count %d", d))
	}
	return &CountSet{d: d, hist: make([]int64, 1)}
}

// D returns the number of epochs in the horizon.
func (cs *CountSet) D() int64 { return cs.d }

// Size returns the number of activities (tenants) added so far.
func (cs *CountSet) Size() int { return cs.n }

// MaxCount returns the current maximum active count over all epochs.
func (cs *CountSet) MaxCount() int { return len(cs.hist) - 1 }

// EpochsAt returns the number of epochs whose active count is exactly c.
func (cs *CountSet) EpochsAt(c int) int64 {
	if c == 0 {
		var busy int64
		for _, h := range cs.hist {
			busy += h
		}
		return cs.d - busy
	}
	if c < 0 || c >= len(cs.hist) {
		return 0
	}
	return cs.hist[c]
}

// Hist returns a copy of the histogram indexed by active count; index 0 is
// the number of fully idle epochs.
func (cs *CountSet) Hist() []int64 {
	out := make([]int64, len(cs.hist))
	copy(out, cs.hist)
	out[0] = cs.EpochsAt(0)
	return out
}

// Reset empties the count function, retaining internal buffers for reuse.
func (cs *CountSet) Reset() {
	cs.segs = cs.segs[:0]
	cs.hist = append(cs.hist[:0], 0)
	cs.n = 0
	cs.lvl = [2]Spans{cs.lvl[0][:0], cs.lvl[1][:0]}
}

// OverCount returns the number of epochs with active count strictly greater
// than r.
func (cs *CountSet) OverCount(r int) int64 {
	var over int64
	for c := r + 1; c < len(cs.hist); c++ {
		over += cs.hist[c]
	}
	return over
}

// TTP returns the Total Time Percentage (thesis §5): the fraction of epochs
// whose active count is at most r, in [0, 1].
func (cs *CountSet) TTP(r int) float64 {
	return float64(cs.d-cs.OverCount(r)) / float64(cs.d)
}

// Transition describes the effect of adding one candidate's spans: Up[c] is
// the number of epochs whose count would rise from c to c+1. Σ Up[c] equals
// the candidate's active epoch count (spans clipped to the grid).
type Transition struct {
	Up []int64
}

// Top returns the highest count level the transition raises epochs from, or
// -1 when it raises none (an all-idle candidate). Top() <= 0 means the
// candidate overlaps no currently-active epoch — "zero overlap": every one of
// its active epochs lands on an idle one.
func (tr Transition) Top() int {
	for c := len(tr.Up) - 1; c >= 0; c-- {
		if tr.Up[c] > 0 {
			return c
		}
	}
	return -1
}

// NewOver returns the number of epochs that would exceed count r after the
// transition, given the set's current state.
func (cs *CountSet) NewOver(r int, tr Transition) int64 {
	over := cs.OverCount(r)
	if r < len(tr.Up) {
		over += tr.Up[r]
	}
	return over
}

// NewTTP returns the TTP at threshold r after applying tr.
func (cs *CountSet) NewTTP(r int, tr Transition) float64 {
	return float64(cs.d-cs.NewOver(r, tr)) / float64(cs.d)
}

// NewMax returns the maximum active count after applying tr.
func (cs *CountSet) NewMax(tr Transition) int {
	m := cs.MaxCount()
	for c := len(tr.Up) - 1; c >= 0; c-- {
		if tr.Up[c] > 0 {
			if c+1 > m {
				m = c + 1
			}
			break
		}
	}
	return m
}

// NewHist returns the histogram (indices ≥ 1) after applying tr.
func (cs *CountSet) NewHist(tr Transition) []int64 {
	max := cs.NewMax(tr)
	out := make([]int64, max+1)
	copy(out, cs.hist)
	for c, up := range tr.Up {
		if up == 0 {
			continue
		}
		out[c] -= up // hist[0] slot is unused for c==0; fixed below
		out[c+1] += up
	}
	if len(out) > 0 {
		out[0] = 0
	}
	// Recompute idle epochs.
	var busy int64
	for c := 1; c < len(out); c++ {
		busy += out[c]
	}
	out[0] = cs.d - busy
	return out
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
// Comparing Up[max-1] values is equivalent to comparing the resulting
// top-level histogram entries hist[max]+Up[max-1], since both candidates see
// the same live hist[max] — but unlike the absolute share it does not drift
// as the group grows, so callers can cache it across rounds.
//
// The head of sp's key is its overlap with the set's top two count levels:
// any epoch on the top level raises the maximum and counts into it, otherwise
// the maximum stands and the epochs on the level below are the ones raised
// into it. Those two level lists are a small fraction of the count function,
// so the head is computed exactly from them first, and the full merge walk
// runs only when the head does not already lose to (bestMax, bestUp). (While
// the maximum is below 2 the top level is the whole function and the level
// below it the idle epochs: the check would be the walk by another name, so
// the walk decides.) ok reports whether the head survives: true with the
// exact transition; false with tr only carrying a buffer back. Either way
// (keyMax, keyUp) is sp's exact key head, as NewTopUp would report it.
func (cs *CountSet) PreviewBounded(sp Spans, buf []int64, bestMax int, bestUp int64) (tr Transition, keyMax int, keyUp int64, ok bool) {
	if m := cs.MaxCount(); m >= 2 && (bestMax == m || bestMax == m+1) {
		if up := sp.Overlap(cs.lvl[0]); up > 0 {
			if bestMax == m || up > bestUp {
				return Transition{Up: buf}, m + 1, up, false
			}
		} else if bestMax == m && cs.hist[m-1] > bestUp {
			// The maximum stands and the tie is open: the level below holds
			// enough epochs for a candidate to lose on it.
			if up = sp.Overlap(cs.lvl[1]); up > bestUp {
				return Transition{Up: buf}, m, up, false
			}
		}
	}
	tr = cs.PreviewInto(sp, buf)
	keyMax, keyUp = cs.NewTopUp(tr)
	ok = bestMax < 0 || keyMax < bestMax || (keyMax == bestMax && keyUp <= bestUp)
	return tr, keyMax, keyUp, ok
}

// prepBuf returns buf resized and zeroed for one transition, reallocating
// only when its capacity is insufficient.
func (cs *CountSet) prepBuf(buf []int64) []int64 {
	need := cs.MaxCount() + 1
	if cap(buf) < need {
		return make([]int64, need)
	}
	buf = buf[:need]
	for i := range buf {
		buf[i] = 0
	}
	return buf
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

// NewTopUp returns the maximum active count after applying tr together with
// the number of epochs tr raises into that maximum (Up[m-1]) — the head of
// the T_best comparison key in the drift-free form PreviewBounded accepts.
// Within one round, candidates all see the same live hist[m], so comparing
// (m, Up[m-1]) pairs orders them exactly like comparing (m, hist[m]+Up[m-1]);
// across rounds the pair is a monotone lower bound on the candidate's future
// key head, because counts only grow while tenants join a group: the implied
// maximum cannot shrink, and an epoch counted in Up[m-1] can only leave it by
// pushing the candidate's maximum past m.
func (cs *CountSet) NewTopUp(tr Transition) (int, int64) {
	m := cs.NewMax(tr)
	var u int64
	if m >= 1 && m-1 < len(tr.Up) {
		u = tr.Up[m-1]
	}
	return m, u
}

// newHistAt returns the post-transition histogram value at level c ≥ 1
// without materializing the histogram.
func (cs *CountSet) newHistAt(tr Transition, c int) int64 {
	var v int64
	if c < len(cs.hist) {
		v = cs.hist[c]
	}
	if c < len(tr.Up) {
		v -= tr.Up[c]
	}
	if c-1 < len(tr.Up) {
		v += tr.Up[c-1]
	}
	return v
}

// CompareTransitions applies the CompareNewHists order to the histograms the
// set would have after transitions a and b, without materializing either:
// negative when a is preferable under the T_best rule, positive when b is,
// 0 on a tie.
func (cs *CountSet) CompareTransitions(a, b Transition) int {
	maxA, maxB := cs.NewMax(a), cs.NewMax(b)
	if maxA != maxB {
		return maxA - maxB
	}
	for c := maxA; c >= 1; c-- {
		av, bv := cs.newHistAt(a, c), cs.newHistAt(b, c)
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// PatchTransition takes a transition tr that was exact for sp against the
// state the set had before the most recent Add(added), and updates it in
// place to be exact against the current state. Committing `added` raised the
// count by one exactly on its own epochs, so tr changes only on sp ∩ added:
// an epoch there at current count c used to contribute to Up[c-1] and now
// contributes to Up[c]. The walk costs O(len(sp) + len(added) + segments
// overlapping the intersection) — far less than re-previewing sp when the
// overlap is a small part of the candidate's footprint. The returned Up may
// be a grown copy of tr.Up. maxTouched is the highest level the patch moved
// mass into, or -1 when the spans were disjoint and tr is unchanged; callers
// maintaining the transition's top level incrementally take the max of the
// old top and maxTouched.
func (cs *CountSet) PatchTransition(sp, added Spans, tr Transition) (Transition, int) {
	up := tr.Up
	segs := cs.segs
	maxTouched := -1
	i, j, k := 0, 0, 0
	for i < len(sp) && j < len(added) {
		if sp[i].E <= added[j].S {
			i++
			continue
		}
		if added[j].E <= sp[i].S {
			j++
			continue
		}
		// Intersection piece [lo, hi).
		lo, hi := sp[i].S, sp[i].E
		if added[j].S > lo {
			lo = added[j].S
		}
		if added[j].E < hi {
			hi = added[j].E
		}
		// Every epoch of `added` is covered by the current segment list
		// (its counts are ≥ 1 after the Add), so walk the segments across
		// the piece. Pieces arrive in ascending order: the cursor k only
		// moves forward.
		k = seekSeg(segs, k, lo)
		for cur := lo; cur < hi; {
			seg := segs[k] // cannot run out: segments cover all of `added`
			pe := seg.e
			if pe > hi {
				pe = hi
			}
			n := int64(pe - cur)
			c := int(seg.c)
			for c >= len(up) {
				if cap(up) > len(up) {
					up = up[:len(up)+1]
					up[len(up)-1] = 0
				} else {
					up = append(up, 0)
				}
			}
			up[c-1] -= n
			up[c] += n
			if c > maxTouched {
				maxTouched = c
			}
			cur = pe
			if seg.e <= hi {
				k++
			}
		}
		// Advance whichever list's span is exhausted first.
		if sp[i].E <= added[j].E {
			i++
		} else {
			j++
		}
	}
	return Transition{Up: up}, maxTouched
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
	top := len(hist) - 1
	for top > 0 && hist[top] == 0 {
		top--
	}
	cs.hist = hist[:top+1]
	cs.viewTop()
}

// viewTop rebuilds the view of the top two count levels from the segment
// list and the histogram.
func (cs *CountSet) viewTop() {
	top := cs.MaxCount()
	l0, l1 := cs.lvl[0][:0], cs.lvl[1][:0]
	for i := range cs.segs {
		if g := &cs.segs[i]; int(g.c) >= top-1 {
			if int(g.c) == top {
				l0 = append(l0, Span{g.s, g.e})
			} else {
				l1 = append(l1, Span{g.s, g.e})
			}
		}
	}
	cs.lvl = [2]Spans{l0, l1}
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

// NewHistAt returns the post-transition histogram value at level c ≥ 1
// without materializing the histogram. The online placer uses it to compare
// candidate target groups: each group reports its own resulting top-level
// share (hist[newMax] after the move), so unlike the drift-free Up[m-1] form
// the values are comparable across different CountSets.
func (cs *CountSet) NewHistAt(tr Transition, c int) int64 { return cs.newHistAt(tr, c) }

// clone returns a deep copy; used by the grouping search when it needs to
// explore tentative additions.
func (cs *CountSet) clone() *CountSet {
	out := &CountSet{d: cs.d, n: cs.n}
	out.segs = append([]countSeg(nil), cs.segs...)
	out.hist = append([]int64(nil), cs.hist...)
	out.lvl = [2]Spans{append(Spans(nil), cs.lvl[0]...), append(Spans(nil), cs.lvl[1]...)}
	return out
}

// Clone returns a deep copy of the count set.
func (cs *CountSet) Clone() *CountSet { return cs.clone() }

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

// CompareNewHists orders two candidate outcomes by the paper's T_best rule
// (§5, Fig 5.3): prefer the candidate whose resulting histogram, read from
// the highest active count downward, is lexicographically smaller — i.e.
// first minimize the new maximum number of active tenants, then the time
// share at that maximum, then at the next level down, and so on. Returns a
// negative number when a is preferable, positive when b is, 0 on a tie.
func CompareNewHists(a, b []int64) int {
	maxA, maxB := len(a)-1, len(b)-1
	for maxA > 0 && a[maxA] == 0 {
		maxA--
	}
	for maxB > 0 && b[maxB] == 0 {
		maxB--
	}
	if maxA != maxB {
		return maxA - maxB
	}
	for c := maxA; c >= 1; c-- {
		av, bv := int64(0), int64(0)
		if c < len(a) {
			av = a[c]
		}
		if c < len(b) {
			bv = b[c]
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}
