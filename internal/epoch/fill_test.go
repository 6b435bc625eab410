package epoch

import (
	"math"
	"math/rand"
	"testing"
)

// addAll is what Fill replaces: an emptied set and one Add per member.
func addAll(d int64, members []Spans) *CountSet {
	cs := NewCountSet(d)
	for _, sp := range members {
		cs.Add(sp)
	}
	return cs
}

// officeSpans is shaped like a composed log on the planner's grid: on each
// working day a window of a few hours holding dozens of short busy stretches.
func officeSpans(rng *rand.Rand, d int64, days int) Spans {
	var sp Spans
	perDay := int32(d) / int32(days)
	for day := int32(0); day < int32(days); day++ {
		if rng.Intn(7) >= 5 {
			continue
		}
		pos := day*perDay + int32(rng.Intn(int(perDay)/2))
		for n := 20 + rng.Intn(40); n > 0; n-- {
			s := pos + 1 + int32(rng.Intn(200))
			e := s + 1 + int32(rng.Intn(40))
			if e > (day+1)*perDay {
				break
			}
			sp = append(sp, Span{s, e})
			pos = e
		}
	}
	return sp
}

func requireSameSet(t *testing.T, what string, got, want *CountSet) {
	t.Helper()
	if got.Size() != want.Size() || got.MaxCount() != want.MaxCount() {
		t.Fatalf("%s: size %d max %d, want %d and %d", what, got.Size(), got.MaxCount(), want.Size(), want.MaxCount())
	}
	if g, w := stateOf(got), stateOf(want); g != w {
		if len(g) > 400 || len(w) > 400 {
			t.Fatalf("%s: state differs from the Add-built set (%d vs %d bytes of it)", what, len(g), len(w))
		}
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
	requireCleanScratch(t, what, got)
}

// requireCleanScratch checks the invariant Fill relies on between calls.
func requireCleanScratch(t *testing.T, what string, cs *CountSet) {
	t.Helper()
	for x, v := range cs.diff {
		if v != 0 {
			t.Fatalf("%s: diff[%d] = %d left behind", what, x, v)
		}
	}
	for w, v := range cs.mark {
		if v != 0 {
			t.Fatalf("%s: mark word %d = %#x left behind", what, w, v)
		}
	}
}

// TestFillMatchesAdds: Fill leaves exactly the set one Add per member builds
// — segments, histogram, level view, Size — whatever the set held before, and
// that set then behaves like the Add-built one under every other operation.
func TestFillMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type tc struct {
		name    string
		d       int64
		members []Spans
	}
	cases := []tc{
		{"no members", 50, nil},
		{"no members, empty slice", 50, []Spans{}},
		{"only empty members", 50, []Spans{nil, {}, nil}},
		{"empty members among others", 50, []Spans{nil, {{3, 9}}, {}, {{5, 12}, {20, 21}}}},
		{"span ending at D", 64, []Spans{{{60, 64}}, {{0, 1}, {63, 64}}}},
		{"whole horizon", 128, []Spans{{{0, 128}}, {{0, 128}}, {{64, 128}}}},
		{"k identical members", 100, []Spans{{{10, 20}, {40, 41}}, {{10, 20}, {40, 41}}, {{10, 20}, {40, 41}}, {{10, 20}, {40, 41}}}},
		{"ends meet starts", 100, []Spans{{{10, 20}}, {{20, 30}}, {{30, 40}, {63, 64}}, {{64, 65}}}},
	}
	for i := 0; i < 40; i++ {
		d := int64(20 + rng.Intn(300))
		c := tc{name: "random", d: d}
		for k := rng.Intn(12); k > 0; k-- {
			c.members = append(c.members, randomSpans(rng, d))
		}
		cases = append(cases, c)
	}
	for i := 0; i < 4; i++ {
		c := tc{name: "office logs", d: 7 * 28800}
		for k := 2 + rng.Intn(30); k > 0; k-- {
			c.members = append(c.members, officeSpans(rng, c.d, 7))
		}
		cases = append(cases, c)
	}
	reused := map[int64]*CountSet{} // one set per horizon, filled case after case
	for _, c := range cases {
		want := addAll(c.d, c.members)
		fresh := NewCountSet(c.d)
		fresh.Fill(c.members)
		requireSameSet(t, c.name+", fresh set", fresh, want)
		fresh.Fill(c.members)
		requireSameSet(t, c.name+", filled twice", fresh, want)

		dirty := addAll(c.d, []Spans{randomSpans(rng, c.d), randomSpans(rng, c.d), {{0, int32(c.d)}}})
		dirty.Fill(c.members)
		requireSameSet(t, c.name+", after Adds", dirty, want)

		cs := reused[c.d]
		if cs == nil {
			cs = NewCountSet(c.d)
			reused[c.d] = cs
		}
		cs.Fill(c.members)
		requireSameSet(t, c.name+", reused set", cs, want)

		// The filled set under the rest of the algebra.
		cand := randomSpans(rng, c.d)
		if c.d > 10000 {
			cand = officeSpans(rng, c.d, 7)
		}
		gotTr, wantTr := fresh.Preview(cand), want.Preview(cand)
		if !spansEqualInt64(gotTr.Up, wantTr.Up) {
			t.Fatalf("%s: Preview on the filled set %v, on the Add-built set %v", c.name, gotTr.Up, wantTr.Up)
		}
		for _, bound := range [][2]int64{{-1, 0}, {int64(want.MaxCount()), 0}, {int64(want.MaxCount()), 7}, {int64(want.MaxCount()) + 1, math.MaxInt64}} {
			gtr, gm, gu, gok := fresh.PreviewBounded(cand, nil, int(bound[0]), bound[1])
			wtr, wm, wu, wok := want.PreviewBounded(cand, nil, int(bound[0]), bound[1])
			if gm != wm || gu != wu || gok != wok || (gok && !spansEqualInt64(gtr.Up, wtr.Up)) {
				t.Fatalf("%s: PreviewBounded(best %v) on the filled set (%d,%d,%v), on the Add-built set (%d,%d,%v)",
					c.name, bound, gm, gu, gok, wm, wu, wok)
			}
		}
		fresh.Add(cand)
		want.Add(cand)
		requireSameSet(t, c.name+", Add on the filled set", fresh, want)
	}
}

// TestFillAllocatesScratchOnce: the difference array and the bitmap are made
// by a set's first Fill and kept; once the segment buffers are warm too a
// Fill allocates nothing. A set that never fills — a live group of the online
// placer, the solver's own set — never holds them, and a clone does not
// inherit them.
func TestFillAllocatesScratchOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 7 * 28800
	var members []Spans
	for k := 0; k < 12; k++ {
		members = append(members, officeSpans(rng, d, 7))
	}
	cs := NewCountSet(d)
	cs.Add(members[0])
	cs.Add(members[1])
	cs.Preview(members[2])
	cs.PreviewBounded(members[2], nil, 2, 5)
	cs.Reset()
	if cs.diff != nil || cs.mark != nil || cs.Clone().diff != nil {
		t.Fatal("a set that never filled holds Fill's scratch")
	}
	cs.Fill(members)
	if int64(len(cs.diff)) != d+1 || len(cs.mark) != d/64+1 {
		t.Fatalf("scratch of %d slots and %d words for %d epochs", len(cs.diff), len(cs.mark), d)
	}
	if c := cs.Clone(); c.diff != nil || c.mark != nil {
		t.Fatal("a clone inherited Fill's scratch")
	}
	diff, mark := &cs.diff[0], &cs.mark[0]
	if allocs := testing.AllocsPerRun(20, func() { cs.Fill(members) }); allocs != 0 {
		t.Errorf("a warm Fill allocates %v times", allocs)
	}
	if diff != &cs.diff[0] || mark != &cs.mark[0] {
		t.Error("Fill replaced its scratch")
	}
	requireSameSet(t, "after repeated Fills", cs, addAll(d, members))
}
