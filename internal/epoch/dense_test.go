package epoch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// add commits sp with its words, as the search does.
func (ds *DenseSet) add(sp Spans) { ds.Add(sp, sp.AppendWords(nil)) }

// denseStateOf renders everything a DenseSet holds, to show that a call left
// it alone.
func denseStateOf(ds *DenseSet) string {
	return fmt.Sprint(ds.d, ds.n, ds.hist, ds.cnt, ds.last, ds.top, ds.sub, ds.sum)
}

// bitmapSpans reads a bitmap back as the maximal runs of its set bits.
func bitmapSpans(bm []uint64) Spans {
	sp := Spans{}
	for i, w := range bm {
		for ; w != 0; w &= w - 1 {
			x := int32(i<<6 + bits.TrailingZeros64(w))
			if n := len(sp); n > 0 && sp[n-1].E == x {
				sp[n-1].E++
			} else {
				sp = append(sp, Span{x, x + 1})
			}
		}
	}
	return sp
}

// wordsOf is the oracle for Spans.AppendWords: every epoch's bit set one at a
// time, the non-zero words in ascending order.
func wordsOf(sp Spans) []Word {
	var ws []Word
	for _, s := range sp {
		for x := s.S; x < s.E; x++ {
			if n := len(ws); n == 0 || ws[n-1].I != x>>6 {
				ws = append(ws, Word{I: x >> 6})
			}
			ws[len(ws)-1].B |= 1 << (x & 63)
		}
	}
	return ws
}

// blocksOf is the oracle for AppendBlocks: the words of the word indices.
func blocksOf(ws []Word) []Word {
	var sp Spans
	for _, w := range ws {
		sp = append(sp, Span{w.I, w.I + 1})
	}
	return wordsOf(sp)
}

// TestSpansAppendWords checks the word and block forms on spans at and across
// word and block edges, and that tenants appended to one arena keep their own
// words and blocks even where the first one's last and the second one's first
// share an index.
func TestSpansAppendWords(t *testing.T) {
	for _, sp := range []Spans{
		{},
		{{0, 1}},
		{{63, 64}},
		{{64, 65}},
		{{65, 66}},
		{{0, 1}, {63, 65}},
		{{62, 66}},
		{{0, 64}},
		{{5, 200}},                             // crosses four words
		{{3, 7}, {20, 31}},                     // two spans in one word
		{{1, 2}, {60, 70}},                     // the second span continues the first's word
		{{90, 100}},                            // the last word of a 100-epoch horizon
		{{0, 64}, {65, 128}},                   // whole and nearly whole words
		{{127, 128}, {128, 129}},               // a word edge between two spans
		{{4000, 4200}},                         // a block edge inside a span
		{{10, 20}, {5000, 5001}, {9000, 9100}}, // three blocks
	} {
		ws := sp.AppendWords(nil)
		if want := wordsOf(sp); !reflect.DeepEqual(ws, want) {
			t.Errorf("%v: words %v, oracle %v", sp, ws, want)
		}
		if got, want := AppendBlocks(nil, ws), blocksOf(ws); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: blocks %v, oracle %v", sp, got, want)
		}
	}
	a, b := Spans{{10, 20}, {60, 70}}, Spans{{66, 68}, {130, 131}}
	arena := a.AppendWords(nil)
	na := len(arena)
	arena = b.AppendWords(arena)
	if got := arena[:na]; !reflect.DeepEqual(got, wordsOf(a)) {
		t.Errorf("first tenant's words in the arena %v, oracle %v", got, wordsOf(a))
	}
	if got := arena[na:]; !reflect.DeepEqual(got, wordsOf(b)) {
		t.Errorf("second tenant's words in the arena %v, oracle %v", got, wordsOf(b))
	}
	blocks := AppendBlocks(nil, arena[:na]) // both tenants' words sit in block 0
	nb := len(blocks)
	if blocks = AppendBlocks(blocks, arena[na:]); !reflect.DeepEqual(blocks[:nb], blocksOf(arena[:na])) || !reflect.DeepEqual(blocks[nb:], blocksOf(arena[na:])) {
		t.Errorf("two tenants' blocks in one arena %v, oracles %v and %v", blocks, blocksOf(arena[:na]), blocksOf(arena[na:]))
	}

	// On a horizon that ends inside its last word, a member on that word
	// sets no bit past the horizon.
	ds := NewDenseSet(100)
	ds.add(Spans{{90, 100}})
	ds.add(Spans{{95, 100}})
	if got, want := bitmapSpans(ds.top), (Spans{{95, 100}}); !reflect.DeepEqual(got, want) {
		t.Errorf("top level %v, want %v", got, want)
	}
	if got, want := bitmapSpans(ds.sub), (Spans{{90, 95}}); !reflect.DeepEqual(got, want) {
		t.Errorf("second level %v, want %v", got, want)
	}
}

// checkDenseSet compares the dense set with the slot-per-epoch oracle and with
// a CountSet built from the same members; last is the spans of the member
// added last (empty after a Reset).
func checkDenseSet(t *testing.T, ds *DenseSet, cs *CountSet, ref *denseCounts, last Spans) {
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
	if got, sub := bitmapSpans(ds.top), bitmapSpans(ds.sub); !reflect.DeepEqual(got, ref.level(m)) || !reflect.DeepEqual(sub, wantSub) {
		t.Fatalf("level bitmaps = %v / %v, oracle %v / %v (max %d)", got, sub, ref.level(m), wantSub, m)
	}
	if got := bitmapSpans(ds.last); !reflect.DeepEqual(got, append(Spans{}, last...)) {
		t.Fatalf("last-member bitmap = %v, last added %v", got, last)
	}
	for i := range ds.top {
		if on := ds.sum[i>>6]>>(i&63)&1 == 1; on != (ds.top[i]|ds.sub[i] != 0) {
			t.Fatalf("sum bit %d = %v with level words %x / %x", i, on, ds.top[i], ds.sub[i])
		}
	}
	if ds.Size() != cs.Size() {
		t.Fatalf("Size %d, CountSet %d", ds.Size(), cs.Size())
	}
}

// FuzzDenseSet drives a DenseSet, a CountSet and the slot-per-epoch oracle
// through the same Add/Reset sequence, on horizons of up to five blocks of
// bitmap words. Before every step the step's spans are previewed as a candidate
// under a fuzzed incumbent bound: PreviewInto must match the oracle and the
// CountSet, PreviewBounded's bitmap head check must accept exactly the
// candidates whose head does not lose — the CountSet's span-list verdict —
// report the oracle's key head either way and the exact transition when it
// accepts, and no preview may write to the set. After an Add, the previous
// step's candidate, previewed before it and patched word by word after it,
// must equal the oracle's transition and a fresh PreviewInto, and the patch
// must leave the set alone. After every step counters, histogram, maximum,
// TTP and Size must match, and the last-member, top-level and second-level
// bitmaps must hold exactly the oracle's last-added epochs and its epochs at
// the top two counts; a Reset must leave every counter and bitmap zero.
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
	// d = 190: spans that cross word edges, and two whose words share one.
	f.Add([]byte{180, 0, 2, 60, 70, 40, 5, 1, 3, 0, 1, 66, 90, 2, 0, 0, 2, 100, 30, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		d := int64(10 + r.next()%190)
		// Past 99 epochs every span is stretched k = d-99 times, over a
		// horizon of d·k epochs: up to 270 words in 5 blocks.
		k := int32(max(1, d-99))
		hz := d * int64(k)
		ds, cs, ref := NewDenseSet(hz), NewCountSet(hz), newDense(hz)
		var prev, last Spans // the previous step's candidate; the last member added
		for steps := 0; r.more() && steps < 64; steps++ {
			op := r.next()
			sp := r.spans(d)
			for i := range sp {
				sp[i].S, sp[i].E = sp[i].S*k, sp[i].E*k
			}
			ws := sp.AppendWords(nil)
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
			tr, keyMax, keyUp, ok := ds.PreviewBounded(sp, ws, AppendBlocks(nil, ws), nil, bestMax, bestUp)
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
				ref = newDense(hz)
				last = nil
				set := func(b uint64) bool { return b != 0 }
				if slices.ContainsFunc(ds.cnt, func(c int32) bool { return c != 0 }) ||
					slices.ContainsFunc(ds.last, set) || slices.ContainsFunc(ds.top, set) || slices.ContainsFunc(ds.sub, set) || slices.ContainsFunc(ds.sum, set) {
					t.Fatalf("Reset left counters %v, bitmaps %x / %x / %x / %x", ds.cnt, ds.last, ds.top, ds.sub, ds.sum)
				}
			} else {
				ds.Add(sp, ws)
				cs.Add(sp)
				ref.add(sp)
				last = sp
				added := denseStateOf(ds)
				got, want := ds.PatchTransition(prev.AppendWords(nil), pre), ref.up(prev)
				if fresh := ds.PreviewInto(prev, nil); !spansEqualInt64(got.Up, want) || !spansEqualInt64(got.Up, fresh.Up) {
					t.Fatalf("PatchTransition(%v after adding %v) = %v, oracle %v, fresh preview %v", prev, sp, got.Up, want, fresh.Up)
				}
				if now := denseStateOf(ds); now != added {
					t.Fatalf("PatchTransition wrote to the set: %s, was %s", now, added)
				}
			}
			checkDenseSet(t, ds, cs, ref, last)
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
			ds.add(one)
			if got := ds.PatchTransition(one.AppendWords(nil), pre); got.Top() != n {
				t.Fatalf("patched transition %v tops at %d, want %d", got.Up[n-2:], got.Top(), n)
			}
		} else {
			ds.add(one)
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
			ds.add(sp)
			cs.Add(sp)
			if !spansEqualInt64(ds.Hist(), cs.Hist()) {
				t.Fatalf("round %d after %d members: hist %v, CountSet %v", round, i+1, ds.Hist(), cs.Hist())
			}
			for j := i + 1; j < len(members); j++ {
				got := ds.PatchTransition(members[j].AppendWords(nil), pre[j])
				if fresh := ds.PreviewInto(members[j], nil); !spansEqualInt64(got.Up, fresh.Up) || !spansEqualInt64(got.Up, cs.Preview(members[j]).Up) {
					t.Fatalf("round %d, member %d patched after %d: %v, fresh %v", round, j, i, got.Up, cs.Preview(members[j]).Up)
				}
			}
		}
	}
}
