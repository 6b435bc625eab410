// Package par runs a loop's independent iterations on several goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(s, i) once for every i in [0, n) on at most workers goroutines
// (GOMAXPROCS when workers ≤ 0), the calling one among them, and returns when
// all calls have. Indices are claimed in ascending order, so the iteration a
// caller wants started first goes at index 0. Each goroutine gets its scratch
// s from one call of scratch (the zero S when scratch is nil) before its first
// iteration, so no two concurrent calls share one. Callers write results to
// slots indexed by i and read them back in order, so what they build does not
// depend on the width. A single iteration runs on the caller, and Each
// allocates nothing for it.
func Each[S any](workers, n int, scratch func() S, fn func(s S, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n <= 1 { // on the caller, before anything escapes to a goroutine
		if n == 1 {
			var s S
			if scratch != nil {
				s = scratch()
			}
			fn(s, 0)
		}
		return
	}
	var next atomic.Int64
	loop := func() {
		var s S
		made := scratch == nil
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if !made {
				s, made = scratch(), true
			}
			fn(s, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
}
