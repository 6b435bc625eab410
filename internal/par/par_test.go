package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce: at every width each index runs exactly once,
// every goroutine makes its own scratch before its first iteration and no two
// calls share one at the same time, and with one worker the calls run in
// index order on the calling goroutine.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			calls := make([]atomic.Int32, n)
			var made atomic.Int32
			type scratch struct{ busy atomic.Bool }
			Each(workers, n, func() *scratch { made.Add(1); return &scratch{} }, func(s *scratch, i int) {
				if !s.busy.CompareAndSwap(false, true) {
					t.Errorf("workers %d n %d: scratch shared by two calls at once", workers, n)
				}
				calls[i].Add(1)
				runtime.Gosched()
				s.busy.Store(false)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers %d n %d: index %d ran %d times", workers, n, i, c)
				}
			}
			width := workers
			if width <= 0 {
				width = runtime.GOMAXPROCS(0)
			}
			if m := int(made.Load()); m > min(width, n) {
				t.Fatalf("workers %d n %d: %d scratches made", workers, n, m)
			}
		}
	}
	var order []int
	Each(1, 5, nil, func(_ any, i int) { order = append(order, i) })
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("one worker ran %v", order)
	}
}

// TestEachOneAllocs: a single iteration runs on the caller, and Each
// allocates nothing for it.
func TestEachOneAllocs(t *testing.T) {
	fn := func(_ struct{}, _ int) {}
	if a := testing.AllocsPerRun(100, func() { Each(0, 1, nil, fn) }); a != 0 {
		t.Fatalf("Each over one index: %v allocs", a)
	}
}
