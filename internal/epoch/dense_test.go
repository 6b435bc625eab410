package epoch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// denseStateOf renders everything a DenseSet holds, to show that a call left
// it alone.
func denseStateOf(ds *DenseSet) string {
	return fmt.Sprint(ds.d, ds.n, ds.hist, ds.cnt, ds.top, ds.sub)
}

// checkDenseSet compares the dense set with the slot-per-epoch oracle and with
// a CountSet built from the same members.
func checkDenseSet(t *testing.T, ds *DenseSet, cs *CountSet, ref *denseCounts) {
	t.Helper()
	for x, c := range ds.cnt[:ds.d] {
		if int64(c) != ref.counts[x] {
			t.Fatalf("epoch %d: count %d, oracle %d", x, c, ref.counts[x])
		}
	}
	if pad := ds.cnt[ds.d:]; slices.ContainsFunc(pad, func(c int32) bool { return c != 0 }) {
		t.Fatalf("counters past the horizon %v", pad)
	}
	if want := ref.hist(); !spansEqualInt64(ds.Hist(), want) || ds.MaxCount() != len(want)-1 || ds.MaxCount() != cs.MaxCount() {
		t.Fatalf("hist %v max %d, oracle %v, CountSet max %d", ds.Hist(), ds.MaxCount(), want, cs.MaxCount())
	}
	for r := 0; r <= ds.MaxCount()+1; r++ {
		var under int64
		for _, c := range ref.counts {
			if c <= int64(r) {
				under++
			}
		}
		if got := ds.TTP(r); got != float64(under)/float64(ds.d) || got != cs.TTP(r) {
			t.Fatalf("TTP(%d) = %v, oracle %v, CountSet %v", r, got, float64(under)/float64(ds.d), cs.TTP(r))
		}
	}
	m := int64(ds.MaxCount())
	wantSub := Spans{}
	if m >= 2 {
		wantSub = ref.level(m - 1)
	}
	if got, sub := append(Spans{}, ds.top...), append(Spans{}, ds.sub...); !reflect.DeepEqual(got, ref.level(m)) || !reflect.DeepEqual(sub, wantSub) {
		t.Fatalf("level view = %v / %v, oracle %v / %v (max %d)", got, sub, ref.level(m), wantSub, m)
	}
	if ds.Size() != cs.Size() {
		t.Fatalf("Size %d, CountSet %d", ds.Size(), cs.Size())
	}
}

// FuzzDenseSet drives a DenseSet, a CountSet and the slot-per-epoch oracle
// through the same Add/Reset sequence. Before every step the step's spans are
// previewed as a candidate under a fuzzed incumbent bound: PreviewInto must match
// the oracle and the CountSet, PreviewBounded must accept exactly the
// candidates whose head does not lose — the CountSet's verdict — report the
// oracle's key head either way and the exact transition when it accepts, and
// no preview may write to the set. After an Add, the previous step's
// candidate, previewed before it and patched after it, must equal the
// oracle's fresh transition, and the patch must leave the set alone. After
// every step counters, histogram, top-two level view, maximum, TTP and Size must
// match; after a Reset every counter must be zero and both levels empty.
func FuzzDenseSet(f *testing.F) {
	// Figure 5.1's six tenants in the order Figure 5.3 packs them, each
	// previewed against a bound on the current maximum, a Reset, and two of
	// them again.
	fig51 := []Spans{{{1, 4}}, {{6, 10}}, {{0, 1}, {3, 6}}, {{0, 1}, {4, 8}}, {{0, 3}, {6, 9}}, {{0, 6}}}
	seed := []byte{0} // d = 10
	for i, sp := range fig51 {
		seed = append(seed, 0) // add
		seed = append(seed, encodeSpans(sp)...)
		seed = append(seed, byte(1+i%3), byte(i))
	}
	seed = append(seed, 3, 0, 0, 0) // reset
	for _, sp := range fig51[4:] {
		seed = append(seed, 0)
		seed = append(seed, encodeSpans(sp)...)
		seed = append(seed, 1, 255)
	}
	f.Add(seed)
	f.Add([]byte{5, 0, 2, 0, 3, 0, 3, 1, 0, 0, 1, 4, 2, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		d := int64(10 + r.next()%54)
		ds, cs, ref := NewDenseSet(d), NewCountSet(d), newDense(d)
		var prev Spans // the previous step's candidate
		for steps := 0; r.more() && steps < 64; steps++ {
			op := r.next()
			sp := r.spans(d)
			bestMax := -1 // no incumbent
			if k := r.next() % 4; k > 0 {
				bestMax = ds.MaxCount() + k - 1
			}
			bestUp := int64(r.next())
			if bestUp == 255 {
				bestUp = math.MaxInt64
			}
			before := denseStateOf(ds)

			wantUp := ref.up(sp)
			if got := ds.PreviewInto(sp, nil); !spansEqualInt64(got.Up, wantUp) || !spansEqualInt64(got.Up, cs.Preview(sp).Up) {
				t.Fatalf("PreviewInto(%v).Up = %v, oracle %v", sp, got.Up, wantUp)
			}
			wantMax, wantTop := ref.head(sp)
			loses := bestMax >= 0 && (wantMax > bestMax || (wantMax == bestMax && wantTop > bestUp))
			tr, keyMax, keyUp, ok := ds.PreviewBounded(sp, nil, bestMax, bestUp)
			if ok == loses || keyMax != wantMax || keyUp != wantTop || (ok && !spansEqualInt64(tr.Up, wantUp)) {
				t.Fatalf("PreviewBounded(%v, best (%d,%d)) = %v head (%d,%d) ok=%v; oracle %v head (%d,%d) loses=%v",
					sp, bestMax, bestUp, tr.Up, keyMax, keyUp, ok, wantUp, wantMax, wantTop, loses)
			}
			if _, m, u, cok := cs.PreviewBounded(sp, nil, bestMax, bestUp); m != keyMax || u != keyUp || cok != ok {
				t.Fatalf("PreviewBounded(%v, best (%d,%d)): dense (%d,%d,%v), CountSet (%d,%d,%v)", sp, bestMax, bestUp, keyMax, keyUp, ok, m, u, cok)
			}
			pre := ds.PreviewInto(prev, nil)
			if now := denseStateOf(ds); now != before {
				t.Fatalf("a preview wrote to the set: %s, was %s", now, before)
			}

			if op%4 == 3 {
				ds.Reset()
				cs.Reset()
				ref = newDense(d)
				if slices.ContainsFunc(ds.cnt, func(c int32) bool { return c != 0 }) || len(ds.top)+len(ds.sub) > 0 {
					t.Fatalf("Reset left counters %v, levels %v / %v", ds.cnt, ds.top, ds.sub)
				}
			} else {
				ds.Add(sp)
				cs.Add(sp)
				ref.add(sp)
				added := denseStateOf(ds)
				if got, want := ds.PatchTransition(prev, pre), ref.up(prev); !spansEqualInt64(got.Up, want) {
					t.Fatalf("PatchTransition(%v after adding %v) = %v, oracle %v", prev, sp, got.Up, want)
				}
				if now := denseStateOf(ds); now != added {
					t.Fatalf("PatchTransition wrote to the set: %s, was %s", now, added)
				}
			}
			checkDenseSet(t, ds, cs, ref)
			prev = sp
		}
	})
}

// TestDenseSetThousandsOnOneEpoch: members that all share one epoch keep a
// group's TTP at (D-1)/D whatever their number, so nothing but the member
// count bounds a group's maximum, and the dense set must count thousands on
// one epoch exactly.
func TestDenseSetThousandsOnOneEpoch(t *testing.T) {
	const d, n = 10_000, 5_000
	ds, cs := NewDenseSet(d), NewCountSet(d)
	one := Spans{{4321, 4322}}
	for i := 0; i < n; i++ {
		if i == n-1 {
			pre := ds.PreviewInto(one, nil)
			ds.Add(one)
			if got := ds.PatchTransition(one, pre); got.Top() != n {
				t.Fatalf("patched transition %v tops at %d, want %d", got.Up[n-2:], got.Top(), n)
			}
		} else {
			ds.Add(one)
		}
		cs.Add(one)
	}
	if ds.MaxCount() != n || ds.EpochsAt(n) != 1 || ds.EpochsAt(0) != d-1 || ds.Size() != n {
		t.Fatalf("max %d, %d epochs at %d, %d idle, size %d", ds.MaxCount(), ds.EpochsAt(n), n, ds.EpochsAt(0), ds.Size())
	}
	if ds.TTP(3) != cs.TTP(3) || ds.TTP(3) != float64(d-1)/d || ds.TTP(3) < 0.999 {
		t.Fatalf("TTP(3) = %v, CountSet %v", ds.TTP(3), cs.TTP(3))
	}
	if m, u := ds.NewTopUp(ds.PreviewInto(one, nil)); m != n+1 || u != 1 {
		t.Fatalf("key head of one more member (%d,%d), want (%d,1)", m, u, n+1)
	}
	ds.Reset()
	if ds.MaxCount() != 0 || ds.Size() != 0 || ds.cnt[4321] != 0 {
		t.Fatalf("Reset left max %d size %d count %d", ds.MaxCount(), ds.Size(), ds.cnt[4321])
	}
}

// TestDensePatchOnOfficeLogs builds groups of office-shaped logs on the
// planner's 7-day grid the way the search does: before each Add every later
// member is previewed, after it patched, and the patched transition must equal
// a fresh preview and the CountSet's, with the set's histogram equal to the
// CountSet's throughout, and a reused set equal to a fresh one after Reset.
func TestDensePatchOnOfficeLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const d = 7 * 28800
	ds := NewDenseSet(d)
	for round := 0; round < 3; round++ {
		var members []Spans
		for k := 4 + rng.Intn(12); k > 0; k-- {
			members = append(members, officeSpans(rng, d, 7))
		}
		ds.Reset()
		cs := NewCountSet(d)
		for i, sp := range members {
			pre := make([]Transition, len(members))
			for j := i + 1; j < len(members); j++ {
				pre[j] = ds.PreviewInto(members[j], nil)
			}
			ds.Add(sp)
			cs.Add(sp)
			if !spansEqualInt64(ds.Hist(), cs.Hist()) {
				t.Fatalf("round %d after %d members: hist %v, CountSet %v", round, i+1, ds.Hist(), cs.Hist())
			}
			for j := i + 1; j < len(members); j++ {
				got := ds.PatchTransition(members[j], pre[j])
				if fresh := ds.PreviewInto(members[j], nil); !spansEqualInt64(got.Up, fresh.Up) || !spansEqualInt64(got.Up, cs.Preview(members[j]).Up) {
					t.Fatalf("round %d, member %d patched after %d: %v, fresh %v", round, j, i, got.Up, cs.Preview(members[j]).Up)
				}
			}
		}
	}
}
