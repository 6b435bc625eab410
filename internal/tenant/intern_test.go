package tenant

import (
	"strconv"
	"sync"
	"testing"
)

// TestInternerConcurrentReads interns 10k tenants on one goroutine while
// readers resolve, without the interner's lock, every ref below the Len they
// saw — the completion path's read against a migration's Intern. Under -race
// it also checks that a published ID slice is never written again.
func TestInternerConcurrentReads(t *testing.T) {
	const n = 10000
	in := NewInterner()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "T" + strconv.Itoa(i)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, id := range ids {
			if ref := in.Intern(id); ref != Ref(i) {
				t.Errorf("Intern(%s) = %d, want %d", id, ref, i)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seen := in.Len()
				view := in.IDs()
				if len(view) < seen {
					t.Errorf("IDs has %d entries after Len read %d", len(view), seen)
					return
				}
				for ref := seen - 1; ref >= 0 && ref >= seen-64; ref -= 1 + r {
					if got := in.ID(Ref(ref)); got != ids[ref] || view[ref] != ids[ref] {
						t.Errorf("ref %d reads %q and %q, want %q", ref, got, view[ref], ids[ref])
						return
					}
				}
				if got := in.ID(Ref(n)); got != "" {
					t.Errorf("ID past the end = %q", got)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if in.Len() != n || len(in.IDs()) != n || in.ID(n-1) != ids[n-1] {
		t.Errorf("after interning: Len %d, IDs %d, last %q", in.Len(), len(in.IDs()), in.ID(n-1))
	}
}
