package epoch

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fuzzReader decodes a fuzz input into count-set operations. An exhausted
// input reads as zeros, so every byte string is a valid program.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) more() bool { return r.pos < len(r.data) }

func (r *fuzzReader) next() int {
	if !r.more() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// spans reads a count byte n%5, then n (gap, length) pairs: a valid Spans
// within [0, d). Small horizons make spans abut segment edges, nest inside
// segments and straddle run boundaries all the time.
func (r *fuzzReader) spans(d int64) Spans {
	var sp Spans
	pos := int32(0)
	for n := r.next() % 5; n > 0; n-- {
		s := pos + int32(r.next()%int(d))
		if len(sp) > 0 {
			s++ // consecutive spans keep a gap
		}
		if int64(s) >= d {
			break
		}
		e := min(s+1+int32(r.next()%int(d)), int32(d))
		sp = append(sp, Span{s, e})
		pos = e
	}
	return sp
}

// encodeSpans is the inverse of fuzzReader.spans, for the seed corpus.
func encodeSpans(sp Spans) []byte {
	out := []byte{byte(len(sp))}
	pos := int32(0)
	for i, s := range sp {
		gap := s.S - pos
		if i > 0 {
			gap--
		}
		out = append(out, byte(gap), byte(s.E-s.S-1))
		pos = s.E
	}
	return out
}

func (dc *denseCounts) remove(sp Spans) {
	for _, s := range sp {
		for i := s.S; i < s.E; i++ {
			dc.counts[i]--
		}
	}
}

// level returns the maximal runs of epochs at count c ≥ 1.
func (dc *denseCounts) level(c int64) Spans {
	sp := Spans{}
	for i, v := range dc.counts {
		if v != c || c < 1 {
			continue
		}
		if n := len(sp); n > 0 && sp[n-1].E == int32(i) {
			sp[n-1].E++
		} else {
			sp = append(sp, Span{int32(i), int32(i) + 1})
		}
	}
	return sp
}

// head returns sp's T_best key head against the dense counts: the maximum
// after adding it and the epochs raised into that maximum.
func (dc *denseCounts) head(sp Spans) (int, int64) {
	up := dc.up(sp)
	m := len(up) - 1 // current maximum
	for c := len(up) - 1; c >= 0; c-- {
		if up[c] > 0 {
			m = max(m, c+1)
			break
		}
	}
	if m == 0 {
		return 0, 0
	}
	return m, up[m-1]
}

// stateOf renders everything a CountSet holds, to show that a call left it
// alone.
func stateOf(cs *CountSet) string {
	return fmt.Sprint(cs.d, cs.n, cs.segs, cs.hist, cs.lvl)
}

// checkAgainstDense compares every piece of the set's state with the oracle.
func checkAgainstDense(t *testing.T, cs *CountSet, ref *denseCounts) {
	t.Helper()
	for i, c := range cs.Counts() {
		if int64(c) != ref.counts[i] {
			t.Fatalf("epoch %d: count %d, oracle %d (segs %v)", i, c, ref.counts[i], cs.segs)
		}
	}
	for i, g := range cs.segs {
		if g.e <= g.s || g.c < 1 || (i > 0 && (cs.segs[i-1].e > g.s || (cs.segs[i-1].e == g.s && cs.segs[i-1].c == g.c))) {
			t.Fatalf("segment list breaks its invariant at %d: %v", i, cs.segs)
		}
	}
	if want := ref.hist(); !spansEqualInt64(cs.Hist(), want) || cs.MaxCount() != len(want)-1 {
		t.Fatalf("hist %v max %d, oracle %v", cs.Hist(), cs.MaxCount(), want)
	}
	top := int64(cs.MaxCount())
	for i, want := range []Spans{ref.level(top), ref.level(top - 1)} {
		if got := append(Spans{}, cs.lvl[i]...); !reflect.DeepEqual(got, want) {
			t.Fatalf("level view [%d] = %v, oracle %v (max %d)", i, got, want, top)
		}
	}
	requireCleanScratch(t, "Fill's scratch", cs)
}

// FuzzCountSet drives a CountSet and the slot-per-epoch oracle through the
// same Add/Fill/Remove sequence; a Fill step adds its spans like an Add step
// but by rebuilding the whole set from its live members in one sweep, so
// everything that follows also runs on a filled set. After every mutation the
// segment list, histogram and top-two level view must match the oracle and
// Fill's scratch must be wiped; before it, the step's spans are previewed as a
// candidate under a fuzzed incumbent bound: PreviewBounded must accept exactly
// the candidates whose oracle key head does not lose, report that exact head
// either way, agree with Preview when it accepts, and — like Preview and
// PatchTransition — leave the set untouched. A preview taken before an Add or
// a Fill and patched after it must equal a fresh one.
func FuzzCountSet(f *testing.F) {
	// Figure 5.1's six tenants in the order Figure 5.3 packs them (T3, T2,
	// T5, T4, T6, then the rejected T1), each previewed against a bound that
	// sits on the current maximum, then T4 and T6 leaving again.
	fig51 := []Spans{{{1, 4}}, {{6, 10}}, {{0, 1}, {3, 6}}, {{0, 1}, {4, 8}}, {{0, 3}, {6, 9}}, {{0, 6}}}
	seed := []byte{0} // d = 10
	for i, sp := range fig51 {
		seed = append(seed, 0) // add
		seed = append(seed, encodeSpans(sp)...)
		seed = append(seed, byte(1+i%3), byte(i))
	}
	seed = append(seed, 3+4*3, 0, 0, 0, 3+4*3, 0, 1, 2) // remove live[3] (T4), then T6
	f.Add(seed)
	// The same with every other tenant arriving by Fill.
	filled := append([]byte(nil), seed...)
	for i, pos := 0, 1; i < len(fig51); i++ {
		if i%2 == 1 {
			filled[pos] = 2
		}
		pos += 1 + len(encodeSpans(fig51[i])) + 2
	}
	f.Add(filled)
	f.Add([]byte{5, 0, 2, 0, 3, 0, 3, 1, 0, 0, 1, 4, 2, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		d := int64(10 + r.next()%54)
		cs, ref := NewCountSet(d), newDense(d)
		var live []Spans
		var prev Spans // the previous step's candidate
		for steps := 0; r.more() && steps < 64; steps++ {
			op := r.next()
			sp := r.spans(d)
			if !sp.Valid() {
				t.Fatalf("decoder produced invalid spans %v", sp)
			}
			bestMax := -1 // no incumbent
			if k := r.next() % 4; k > 0 {
				bestMax = cs.MaxCount() + k - 1
			}
			bestUp := int64(r.next())
			if bestUp == 255 {
				bestUp = math.MaxInt64 // the placer's max-only bound
			}
			before := stateOf(cs)

			wantUp := ref.up(sp)
			full := cs.Preview(sp)
			if !spansEqualInt64(full.Up, wantUp) {
				t.Fatalf("Preview(%v).Up = %v, oracle %v", sp, full.Up, wantUp)
			}
			wantMax, wantTop := ref.head(sp)
			loses := bestMax >= 0 && (wantMax > bestMax || (wantMax == bestMax && wantTop > bestUp))
			tr, keyMax, keyUp, ok := cs.PreviewBounded(sp, nil, bestMax, bestUp)
			if ok == loses || keyMax != wantMax || keyUp != wantTop {
				t.Fatalf("PreviewBounded(%v, best (%d,%d)) = head (%d,%d) ok=%v; oracle head (%d,%d) loses=%v",
					sp, bestMax, bestUp, keyMax, keyUp, ok, wantMax, wantTop, loses)
			}
			if ok {
				if m, u := cs.NewTopUp(tr); !spansEqualInt64(tr.Up, wantUp) || m != keyMax || u != keyUp {
					t.Fatalf("accepted preview of %v: Up %v head (%d,%d), want %v (%d,%d)", sp, tr.Up, m, u, wantUp, keyMax, keyUp)
				}
			}

			pre := cs.Preview(prev)
			if now := stateOf(cs); now != before {
				t.Fatalf("a preview wrote to the set: %s, was %s", now, before)
			}
			if op%4 == 3 && len(live) > 0 {
				i := (op / 4) % len(live)
				cs.Remove(live[i])
				ref.remove(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				ref.add(sp)
				live = append(live, sp)
				if op%4 == 2 {
					cs.Fill(live)
				} else {
					cs.Add(sp)
				}
				added := stateOf(cs)
				patched, _ := cs.PatchTransition(prev, sp, pre)
				if want := ref.up(prev); !spansEqualInt64(patched.Up, want) {
					t.Fatalf("PatchTransition(%v after adding %v) = %v, oracle %v", prev, sp, patched.Up, want)
				}
				if now := stateOf(cs); now != added {
					t.Fatalf("PatchTransition wrote to the set: %s, was %s", now, added)
				}
			}
			checkAgainstDense(t, cs, ref)
			if cs.Size() != len(live) {
				t.Fatalf("Size %d with %d live activities", cs.Size(), len(live))
			}
			prev = sp
		}
	})
}
