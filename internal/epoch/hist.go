package epoch

import "fmt"

// histogram is the part of a group's count function the T_best rule reads:
// the horizon, the members added and how many epochs sit at each active
// count. CountSet and DenseSet embed it, so the histogram algebra below —
// TTP, the maximum and key head a transition would leave, the bounded
// preview's head check, and the T_best order between two transitions — is
// written once for both.
type histogram struct {
	d    int64   // total epochs in the horizon
	hist []int64 // hist[c] = number of epochs with count c, c ≥ 1; hist[0] unused
	n    int     // number of activities added
}

func newHistogram(d int64) histogram {
	if d <= 0 {
		panic(fmt.Sprintf("epoch: non-positive epoch count %d", d))
	}
	return histogram{d: d, hist: make([]int64, 1)}
}

// reset empties the histogram, keeping its buffer.
func (h *histogram) reset() {
	h.hist = append(h.hist[:0], 0)
	h.n = 0
}

// trim drops the histogram's empty top levels.
func (h *histogram) trim() {
	top := len(h.hist) - 1
	for top > 0 && h.hist[top] == 0 {
		top--
	}
	h.hist = h.hist[:top+1]
}

// Size returns the number of activities (tenants) added so far.
func (h *histogram) Size() int { return h.n }

// MaxCount returns the current maximum active count over all epochs.
func (h *histogram) MaxCount() int { return len(h.hist) - 1 }

// EpochsAt returns the number of epochs whose active count is exactly c.
func (h *histogram) EpochsAt(c int) int64 {
	if c == 0 {
		var busy int64
		for _, v := range h.hist {
			busy += v
		}
		return h.d - busy
	}
	if c < 0 || c >= len(h.hist) {
		return 0
	}
	return h.hist[c]
}

// Hist returns a copy of the histogram indexed by active count; index 0 is
// the number of fully idle epochs.
func (h *histogram) Hist() []int64 {
	out := make([]int64, len(h.hist))
	copy(out, h.hist)
	out[0] = h.EpochsAt(0)
	return out
}

// OverCount returns the number of epochs with active count strictly greater
// than r.
func (h *histogram) OverCount(r int) int64 {
	var over int64
	for c := r + 1; c < len(h.hist); c++ {
		over += h.hist[c]
	}
	return over
}

// TTP returns the Total Time Percentage (thesis §5): the fraction of epochs
// whose active count is at most r, in [0, 1].
func (h *histogram) TTP(r int) float64 {
	return float64(h.d-h.OverCount(r)) / float64(h.d)
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
func (h *histogram) NewOver(r int, tr Transition) int64 {
	over := h.OverCount(r)
	if r < len(tr.Up) {
		over += tr.Up[r]
	}
	return over
}

// NewTTP returns the TTP at threshold r after applying tr.
func (h *histogram) NewTTP(r int, tr Transition) float64 {
	return float64(h.d-h.NewOver(r, tr)) / float64(h.d)
}

// NewMax returns the maximum active count after applying tr.
func (h *histogram) NewMax(tr Transition) int {
	return max(h.MaxCount(), tr.Top()+1)
}

// NewHist returns the histogram (indices ≥ 1) after applying tr.
func (h *histogram) NewHist(tr Transition) []int64 {
	out := make([]int64, h.NewMax(tr)+1)
	var busy int64
	for c := 1; c < len(out); c++ {
		out[c] = h.NewHistAt(tr, c)
		busy += out[c]
	}
	out[0] = h.d - busy
	return out
}

// prepBuf returns buf resized and zeroed for one transition, reallocating
// only when its capacity is insufficient.
func (h *histogram) prepBuf(buf []int64) []int64 {
	need := h.MaxCount() + 1
	if cap(buf) < need {
		return make([]int64, need)
	}
	buf = buf[:need]
	clear(buf)
	return buf
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
func (h *histogram) NewTopUp(tr Transition) (int, int64) {
	m := h.NewMax(tr)
	var u int64
	if m >= 1 && m-1 < len(tr.Up) {
		u = tr.Up[m-1]
	}
	return m, u
}

// headChecks reports whether a bounded preview runs the head check against an
// incumbent with maximum bestMax: only once the maximum m is 2 or more (below
// that the top level is most of the function and the walk decides), and only
// against an incumbent at m or m+1.
func (h *histogram) headChecks(bestMax int) bool {
	m := h.MaxCount()
	return m >= 2 && (bestMax == m || bestMax == m+1)
}

// headLoses is the head check's verdict against the incumbent's key head
// (bestMax, bestUp), from the candidate's epochs at the top count level m
// (top) and at m-1 (sub; 0 when unknown). A candidate touching level m has
// the exact head (m+1, top); one missing it keeps m, with its sub epochs
// raised into it.
func (h *histogram) headLoses(top, sub int64, bestMax int, bestUp int64) (keyMax int, keyUp int64, lost bool) {
	m := h.MaxCount()
	if top > 0 {
		return m + 1, top, bestMax == m || top > bestUp
	}
	if bestMax == m && sub > bestUp {
		return m, sub, true
	}
	return 0, 0, false
}

// bounded is the verdict of a bounded preview on an exact transition tr: its
// key head, and whether that head does not lose to the incumbent's (bestMax,
// bestUp); a negative bestMax means no incumbent.
func (h *histogram) bounded(tr Transition, bestMax int, bestUp int64) (Transition, int, int64, bool) {
	keyMax, keyUp := h.NewTopUp(tr)
	ok := bestMax < 0 || keyMax < bestMax || (keyMax == bestMax && keyUp <= bestUp)
	return tr, keyMax, keyUp, ok
}

// NewHistAt returns the post-transition histogram value at level c ≥ 1
// without materializing the histogram. The online placer uses it to compare
// candidate target groups: each group reports its own resulting top-level
// share (hist[newMax] after the move), so unlike the drift-free Up[m-1] form
// the values are comparable across different sets.
func (h *histogram) NewHistAt(tr Transition, c int) int64 {
	var v int64
	if c < len(h.hist) {
		v = h.hist[c]
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
func (h *histogram) CompareTransitions(a, b Transition) int {
	maxA, maxB := h.NewMax(a), h.NewMax(b)
	if maxA != maxB {
		return maxA - maxB
	}
	for c := maxA; c >= 1; c-- {
		av, bv := h.NewHistAt(a, c), h.NewHistAt(b, c)
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
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
