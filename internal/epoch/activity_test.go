package epoch

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func iv(s, e int64) Interval { return Interval{sim.Time(s) * sim.Second, sim.Time(e) * sim.Second} }

func TestNormalize(t *testing.T) {
	cases := []struct {
		name string
		in   []Interval
		want Activity
	}{
		{"empty", nil, nil},
		{"single", []Interval{iv(1, 2)}, Activity{iv(1, 2)}},
		{"drops empty", []Interval{iv(1, 1), iv(3, 2)}, nil},
		{"merges overlap", []Interval{iv(1, 5), iv(3, 8)}, Activity{iv(1, 8)}},
		{"merges touching", []Interval{iv(1, 3), iv(3, 5)}, Activity{iv(1, 5)}},
		{"keeps gap", []Interval{iv(1, 2), iv(4, 5)}, Activity{iv(1, 2), iv(4, 5)}},
		{"sorts", []Interval{iv(6, 7), iv(1, 2)}, Activity{iv(1, 2), iv(6, 7)}},
		{"nested", []Interval{iv(1, 10), iv(2, 3), iv(4, 5)}, Activity{iv(1, 10)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Normalize(c.in)
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
			if !got.Valid() {
				t.Errorf("result %v not valid", got)
			}
		})
	}
}

func TestNormalizeDoesNotMutateInput(t *testing.T) {
	in := []Interval{iv(5, 6), iv(1, 2)}
	_ = Normalize(in)
	if in[0] != iv(5, 6) || in[1] != iv(1, 2) {
		t.Errorf("input mutated: %v", in)
	}
}

// TestNormalizeProperties checks, for random interval soups — unsorted, with
// empty, overlapping, nested and touching members — that the result equals
// an oracle (the maximal runs of covered whole seconds; every endpoint is a
// whole second), is valid, and is idempotent.
func TestNormalizeProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := make([]Interval, int(n)%20)
		var covered [110]bool
		for i := range ivs {
			s := rng.Int63n(100)
			ivs[i] = iv(s, s+rng.Int63n(10))
			for p := s; p < s+int64(ivs[i].Dur()/sim.Second); p++ {
				covered[p] = true
			}
		}
		var want Activity
		for p := int64(0); p < int64(len(covered)); p++ {
			switch {
			case !covered[p]:
			case p > 0 && covered[p-1]:
				want[len(want)-1].End += sim.Second
			default:
				want = append(want, iv(p, p+1))
			}
		}
		a := Normalize(ivs)
		return a.Valid() && slices.Equal(a, want) && slices.Equal(Normalize(a), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestActivityTotalAndRatio(t *testing.T) {
	a := Activity{iv(0, 10), iv(20, 25)}
	if got := a.Total(); got != 15*sim.Second {
		t.Errorf("Total = %v, want 15s", got)
	}
	if got := a.Ratio(30 * sim.Second); got != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", got)
	}
	// Clipping at the horizon.
	if got := a.Ratio(22 * sim.Second); got != 12.0/22.0 {
		t.Errorf("clipped Ratio = %v, want %v", got, 12.0/22.0)
	}
	if got := Activity(nil).Ratio(10 * sim.Second); got != 0 {
		t.Errorf("empty Ratio = %v, want 0", got)
	}
	if got := a.Ratio(0); got != 0 {
		t.Errorf("zero-horizon Ratio = %v, want 0", got)
	}
}

func TestShiftClipUnion(t *testing.T) {
	a := Activity{iv(0, 5), iv(10, 15)}
	s := a.Shift(100 * sim.Second)
	if s[0] != iv(100, 105) || s[1] != iv(110, 115) {
		t.Errorf("Shift = %v", s)
	}
	c := a.Clip(2*sim.Second, 12*sim.Second)
	if len(c) != 2 || c[0] != iv(2, 5) || c[1] != iv(10, 12) {
		t.Errorf("Clip = %v", c)
	}
	u := a.Union(Activity{iv(4, 11)})
	if len(u) != 1 || u[0] != iv(0, 15) {
		t.Errorf("Union = %v", u)
	}
}

func TestActiveAt(t *testing.T) {
	a := Activity{iv(1, 2), iv(5, 7)}
	probes := []struct {
		t    sim.Time
		want bool
	}{
		{0, false},
		{1 * sim.Second, true},
		{2*sim.Second - 1, true},
		{2 * sim.Second, false}, // half-open
		{6 * sim.Second, true},
		{100 * sim.Second, false},
	}
	for _, p := range probes {
		if got := a.ActiveAt(p.t); got != p.want {
			t.Errorf("ActiveAt(%v) = %v, want %v", p.t, got, p.want)
		}
	}
}

func TestNewGrid(t *testing.T) {
	g, err := NewGrid(10*sim.Second, 100*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g.D != 10 {
		t.Errorf("D = %d, want 10", g.D)
	}
	// Horizon rounds up.
	g, err = NewGrid(10*sim.Second, 101*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g.D != 11 {
		t.Errorf("rounded D = %d, want 11", g.D)
	}
	if _, err := NewGrid(0, sim.Second); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewGrid(sim.Second, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewGrid(1, sim.Time(1)<<40); err == nil {
		t.Error("int32 overflow accepted")
	}
}

func TestQuantize(t *testing.T) {
	g := MustGrid(10*sim.Second, 100*sim.Second)
	cases := []struct {
		name string
		a    Activity
		want Spans
	}{
		{"empty", nil, nil},
		{"aligned", Activity{iv(10, 30)}, Spans{{1, 3}}},
		{"rounds out", Activity{iv(11, 29)}, Spans{{1, 3}}},
		{"sub-epoch query lights one epoch", Activity{iv(15, 16)}, Spans{{1, 2}}},
		{"merges after rounding", Activity{iv(5, 14), iv(16, 25)}, Spans{{0, 3}}},
		{"clips to horizon", Activity{iv(95, 200)}, Spans{{9, 10}}},
		{"fully outside", Activity{iv(150, 200)}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := g.Quantize(c.a)
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
			if !got.Valid() {
				t.Errorf("result %v invalid", got)
			}
		})
	}
}

// TestQuantizeMatchesDense verifies span quantization against a per-epoch
// dense recomputation for random activities.
func TestQuantizeMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ivs []Interval
		for i := 0; i < rng.Intn(15); i++ {
			s := rng.Int63n(500)
			ivs = append(ivs, Interval{sim.Time(s), sim.Time(s + 1 + rng.Int63n(60))})
		}
		a := Normalize(ivs)
		g := MustGrid(7, 500) // deliberately non-divisible width
		sp := g.Quantize(a)
		if !sp.Valid() {
			return false
		}
		dense := g.Dense(sp)
		for e := int64(0); e < g.D; e++ {
			lo, hi := sim.Time(e*7), sim.Time((e+1)*7)
			overlap := false
			for _, x := range a {
				if x.Start < hi && x.End > lo {
					overlap = true
					break
				}
			}
			if dense[e] != overlap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quantizeByAppend is Quantize as it was before it sized its result up front:
// the same loop growing a nil slice.
func quantizeByAppend(g Grid, a Activity) Spans {
	var out Spans
	for _, iv := range a {
		s64 := int64(iv.Start / g.Width)
		e64 := int64((iv.End + g.Width - 1) / g.Width)
		if s64 < 0 {
			s64 = 0
		}
		if e64 > g.D {
			e64 = g.D
		}
		if e64 <= s64 {
			continue
		}
		s, e := int32(s64), int32(e64)
		if n := len(out); n > 0 && s <= out[n-1].E {
			if e > out[n-1].E {
				out[n-1].E = e
			}
			continue
		}
		out = append(out, Span{s, e})
	}
	return out
}

// TestQuantizeAllocatesOnce: one allocation of at most one span per interval,
// and the spans the growing version produced. The activities are the fuzz
// reader's spans on a time base three times finer than the grid and running
// past its horizon, so intervals share epochs, merge after rounding and clip.
func TestQuantizeAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := MustGrid(3*sim.Second, 40*sim.Second)
	for i := 0; i < 500; i++ {
		data := make([]byte, 16)
		rng.Read(data)
		var a Activity
		for _, s := range (&fuzzReader{data: data}).spans(60) {
			a = append(a, Interval{sim.Time(s.S-3) * sim.Second, sim.Time(s.E-3) * sim.Second})
		}
		if !a.Valid() {
			t.Fatalf("invalid activity %v", a)
		}
		got, want := g.Quantize(a), quantizeByAppend(g, a)
		if !slices.Equal(got, want) || !got.Valid() {
			t.Fatalf("Quantize(%v) = %v, want %v", a, got, want)
		}
		if cap(got) > len(a) {
			t.Fatalf("Quantize(%v) holds %d spans of capacity for %d intervals", a, cap(got), len(a))
		}
		if len(a) == 0 {
			continue // nothing to allocate
		}
		if allocs := testing.AllocsPerRun(5, func() { g.Quantize(a) }); allocs != 1 {
			t.Fatalf("Quantize(%v) allocates %v times", a, allocs)
		}
	}
}

func TestPaperFig51Quantization(t *testing.T) {
	// Figure 5.1's tenant T1 is active in epochs t1..t6 of ten. With 1-epoch
	// wide grid units this is the vector <1,1,1,1,1,1,0,0,0,0>.
	g := MustGrid(sim.Second, 10*sim.Second)
	a := Activity{iv(0, 6)}
	sp := g.Quantize(a)
	if len(sp) != 1 || sp[0] != (Span{0, 6}) {
		t.Fatalf("spans = %v, want [{0 6}]", sp)
	}
	if sp.Len() != 6 {
		t.Errorf("Len = %d, want 6", sp.Len())
	}
}
