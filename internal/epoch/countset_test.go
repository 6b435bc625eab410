package epoch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// denseCounts is the reference implementation: one int per epoch.
type denseCounts struct {
	counts []int64
}

func newDense(d int64) *denseCounts { return &denseCounts{counts: make([]int64, d)} }

func (dc *denseCounts) add(sp Spans) {
	for _, s := range sp {
		for i := s.S; i < s.E; i++ {
			dc.counts[i]++
		}
	}
}

func (dc *denseCounts) hist() []int64 {
	max := int64(0)
	for _, c := range dc.counts {
		if c > max {
			max = c
		}
	}
	h := make([]int64, max+1)
	for _, c := range dc.counts {
		h[c]++
	}
	return h
}

func (dc *denseCounts) up(sp Spans) []int64 {
	max := int64(0)
	for _, c := range dc.counts {
		if c > max {
			max = c
		}
	}
	u := make([]int64, max+1)
	for _, s := range sp {
		for i := s.S; i < s.E; i++ {
			u[dc.counts[i]]++
		}
	}
	return u
}

func randomSpans(rng *rand.Rand, d int64) Spans {
	var sp Spans
	pos := int32(0)
	for pos < int32(d) {
		gap := int32(rng.Intn(int(d)/3 + 1))
		s := pos + gap + 1
		if s >= int32(d) {
			break
		}
		e := s + 1 + int32(rng.Intn(int(d)/4+1))
		if e > int32(d) {
			e = int32(d)
		}
		sp = append(sp, Span{s, e})
		pos = e
	}
	return sp
}

func spansEqualInt64(a, b []int64) bool {
	// Compare ignoring trailing zeros.
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	get := func(x []int64, i int) int64 {
		if i < len(x) {
			return x[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if get(a, i) != get(b, i) {
			return false
		}
	}
	return true
}

// TestCountSetMatchesDense is the central property test: over random
// sequences of span additions, CountSet's histogram, max count, TTP, dense
// expansion, and Preview transitions all agree with the slot-per-epoch
// reference.
func TestCountSetMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int64(20 + rng.Intn(200))
		cs := NewCountSet(d)
		ref := newDense(d)
		for round := 0; round < 12; round++ {
			sp := randomSpans(rng, d)
			// Preview must match the dense transition.
			tr := cs.Preview(sp)
			wantUp := ref.up(sp)
			if !spansEqualInt64(tr.Up, wantUp) {
				t.Logf("seed %d round %d: up %v want %v", seed, round, tr.Up, wantUp)
				return false
			}
			// Predicted new histogram must match post-add dense histogram.
			predicted := cs.NewHist(tr)
			cs.Add(sp)
			ref.add(sp)
			if !spansEqualInt64(cs.Hist(), ref.hist()) {
				t.Logf("seed %d round %d: hist %v want %v", seed, round, cs.Hist(), ref.hist())
				return false
			}
			if !spansEqualInt64(predicted, ref.hist()) {
				t.Logf("seed %d round %d: predicted %v want %v", seed, round, predicted, ref.hist())
				return false
			}
			// Dense expansion matches.
			got := cs.Counts()
			for i := int64(0); i < d; i++ {
				if int64(got[i]) != ref.counts[i] {
					return false
				}
			}
			// TTP at random thresholds.
			r := rng.Intn(6)
			var under int64
			for _, c := range ref.counts {
				if c <= int64(r) {
					under++
				}
			}
			if cs.TTP(r) != float64(under)/float64(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCountSetBasics(t *testing.T) {
	cs := NewCountSet(10)
	if cs.MaxCount() != 0 || cs.TTP(0) != 1.0 || cs.Size() != 0 {
		t.Fatalf("empty set: max=%d ttp=%v size=%d", cs.MaxCount(), cs.TTP(0), cs.Size())
	}
	cs.Add(Spans{{0, 5}})
	cs.Add(Spans{{3, 8}})
	// counts: 1 1 1 2 2 1 1 1 0 0
	if cs.MaxCount() != 2 {
		t.Errorf("max = %d, want 2", cs.MaxCount())
	}
	if got := cs.EpochsAt(1); got != 6 {
		t.Errorf("EpochsAt(1) = %d, want 6", got)
	}
	if got := cs.EpochsAt(2); got != 2 {
		t.Errorf("EpochsAt(2) = %d, want 2", got)
	}
	if got := cs.EpochsAt(0); got != 2 {
		t.Errorf("EpochsAt(0) = %d, want 2", got)
	}
	if got := cs.TTP(1); got != 0.8 {
		t.Errorf("TTP(1) = %v, want 0.8", got)
	}
	if got := cs.TTP(2); got != 1.0 {
		t.Errorf("TTP(2) = %v, want 1.0", got)
	}
	if cs.Size() != 2 {
		t.Errorf("Size = %d, want 2", cs.Size())
	}
}

func TestCountSetEmptySpansAdd(t *testing.T) {
	cs := NewCountSet(10)
	cs.Add(nil)
	if cs.Size() != 1 || cs.MaxCount() != 0 {
		t.Errorf("adding an all-idle tenant: size=%d max=%d", cs.Size(), cs.MaxCount())
	}
	tr := cs.Preview(nil)
	if len(tr.Up) != 1 || tr.Up[0] != 0 {
		t.Errorf("Preview(nil).Up = %v", tr.Up)
	}
}

func TestCountSetClone(t *testing.T) {
	cs := NewCountSet(10)
	cs.Add(Spans{{0, 5}})
	cl := cs.Clone()
	cl.Add(Spans{{0, 10}})
	if cs.MaxCount() != 1 {
		t.Errorf("clone mutation leaked into original: max=%d", cs.MaxCount())
	}
	if cl.MaxCount() != 2 || cl.Size() != 2 {
		t.Errorf("clone wrong: max=%d size=%d", cl.MaxCount(), cl.Size())
	}
}

func TestNewOverAndNewMax(t *testing.T) {
	cs := NewCountSet(10)
	cs.Add(Spans{{0, 6}}) // counts 1×6
	tr := cs.Preview(Spans{{4, 8}})
	// epochs 4,5 go 1→2; epochs 6,7 go 0→1.
	if tr.Up[0] != 2 || tr.Up[1] != 2 {
		t.Fatalf("Up = %v, want [2 2]", tr.Up)
	}
	if got := cs.NewMax(tr); got != 2 {
		t.Errorf("NewMax = %d, want 2", got)
	}
	if got := cs.NewOver(1, tr); got != 2 {
		t.Errorf("NewOver(1) = %d, want 2", got)
	}
	if got := cs.NewTTP(1, tr); got != 0.8 {
		t.Errorf("NewTTP(1) = %v, want 0.8", got)
	}
	if got := cs.NewOver(2, tr); got != 0 {
		t.Errorf("NewOver(2) = %d, want 0", got)
	}
}

func TestCompareNewHists(t *testing.T) {
	cases := []struct {
		a, b []int64
		want int // sign
	}{
		{[]int64{0, 5}, []int64{0, 3, 1}, -1},      // lower max wins
		{[]int64{0, 5, 2}, []int64{0, 9, 1}, 1},    // same max, fewer at max wins
		{[]int64{0, 5, 2}, []int64{0, 4, 2}, 1},    // tie at max, fewer one level down
		{[]int64{0, 5, 2}, []int64{0, 5, 2}, 0},    // identical
		{[]int64{0, 5, 2, 0}, []int64{0, 5, 2}, 0}, // trailing zeros ignored
		{[]int64{10}, []int64{3, 1}, -1},           // all-idle beats any activity
	}
	for i, c := range cases {
		got := CompareNewHists(c.a, c.b)
		switch {
		case c.want < 0 && got >= 0, c.want > 0 && got <= 0, c.want == 0 && got != 0:
			t.Errorf("case %d: Compare(%v,%v) = %d, want sign %d", i, c.a, c.b, got, c.want)
		}
		// Antisymmetry.
		rev := CompareNewHists(c.b, c.a)
		if (got < 0) != (rev > 0) || (got == 0) != (rev == 0) {
			t.Errorf("case %d: not antisymmetric: %d vs %d", i, got, rev)
		}
	}
}

// TestPaperFig53Arithmetic reproduces the time-percentage bookkeeping of the
// worked example in Figure 5.3 using Figure 5.1's tenant activities
// (10 epochs; see grouping tests for the full algorithm trace).
func TestPaperFig53Arithmetic(t *testing.T) {
	// Activities transcribed from Figure 5.1 (epoch indices, 0-based).
	// T1 active t1..t6; T3 active t2,t3,t4 (so that adding T1 raises the
	// 2-active share from 0% to 30%, as the text states).
	T1 := Spans{{0, 6}}
	T3 := Spans{{1, 4}}
	cs := NewCountSet(10)
	cs.Add(T3)
	tr := cs.Preview(T1)
	// "when putting T1 into TG1, the total time percentage that has two
	// active tenants is increased from 0% to 30%".
	nh := cs.NewHist(tr)
	if nh[2] != 3 {
		t.Errorf("epochs with 2 active after adding T1 = %d, want 3", nh[2])
	}
}

func TestCountSetPreviewDoesNotMutate(t *testing.T) {
	cs := NewCountSet(50)
	cs.Add(Spans{{0, 30}})
	before := cs.Hist()
	_ = cs.Preview(Spans{{10, 40}})
	after := cs.Hist()
	if !spansEqualInt64(before, after) {
		t.Errorf("Preview mutated histogram: %v -> %v", before, after)
	}
}

func BenchmarkPreview(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := int64(259200) // 30 days of 10 s epochs
	cs := NewCountSet(d)
	for i := 0; i < 15; i++ {
		cs.Add(randomSpans(rng, d))
	}
	cand := randomSpans(rng, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cs.Preview(cand)
	}
}

func TestNewHistAtExported(t *testing.T) {
	cs := NewCountSet(100)
	cs.Add(Spans{{0, 10}})
	cs.Add(Spans{{5, 15}})
	tr := cs.Preview(Spans{{8, 12}})
	max := cs.NewMax(tr)
	hist := cs.NewHist(tr)
	if got := cs.NewHistAt(tr, max); got != hist[max] {
		t.Fatalf("NewHistAt(%d)=%d want %d", max, got, hist[max])
	}
	for c := 1; c <= max; c++ {
		if got := cs.NewHistAt(tr, c); got != hist[c] {
			t.Fatalf("NewHistAt(%d)=%d want %d", c, got, hist[c])
		}
	}
}
