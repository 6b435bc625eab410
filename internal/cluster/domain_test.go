package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestPoolDomainsLayout(t *testing.T) {
	p := NewPoolDomains(10, 3)
	if p.Domains() != 3 || p.Size() != 10 {
		t.Fatalf("domains=%d size=%d", p.Domains(), p.Size())
	}
	counts := map[int]int{}
	last := 0
	for id := 0; id < p.Size(); id++ {
		d := p.DomainOf(id)
		if d < last || d > 2 {
			t.Fatalf("node %d in domain %d after domain %d — not contiguous", id, d, last)
		}
		last = d
		counts[d]++
	}
	for d := 0; d < 3; d++ {
		if counts[d] < 3 || counts[d] > 4 {
			t.Fatalf("domain %d holds %d of 10 nodes — not balanced", d, counts[d])
		}
	}
	if NewPool(5).Domains() != 1 {
		t.Fatalf("NewPool must stay single-domain")
	}
}

func TestAcquireSpread(t *testing.T) {
	p := NewPoolDomains(12, 3) // 4 nodes per domain
	_, doms, err := p.AcquireSpread("a", 3, nil)
	if err != nil || len(doms) != 1 {
		t.Fatalf("a: doms=%v err=%v", doms, err)
	}
	_, doms2, err := p.AcquireSpread("b", 3, doms)
	if err != nil || len(doms2) != 1 || doms2[0] == doms[0] {
		t.Fatalf("b landed in %v, sibling already holds %v (err=%v)", doms2, doms, err)
	}
	_, doms3, err := p.AcquireSpread("c", 3, append(doms, doms2...))
	if err != nil || len(doms3) != 1 || doms3[0] == doms[0] || doms3[0] == doms2[0] {
		t.Fatalf("c landed in %v after %v,%v (err=%v)", doms3, doms, doms2, err)
	}
	// One node left per domain: no single domain fits 3, so the fallback
	// spreads the instance itself cross-domain rather than refuse.
	nodes, doms4, err := p.AcquireSpread("d", 3, nil)
	if err != nil || len(nodes) != 3 || len(doms4) != 3 {
		t.Fatalf("fallback: nodes=%d doms=%v err=%v", len(nodes), doms4, err)
	}
	// Exhausted: error and no side effects.
	free := p.Free()
	if _, _, err := p.AcquireSpread("e", 1, nil); err == nil {
		t.Fatalf("acquire on an empty pool succeeded")
	}
	if p.Free() != free {
		t.Fatalf("failed spread acquire changed the free list: %d → %d", free, p.Free())
	}
}

func TestFailDomainRestore(t *testing.T) {
	p := NewPoolDomains(12, 3)
	if _, _, err := p.AcquireSpread("a", 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.AcquireSpread("b", 4, []int{0}); err != nil {
		t.Fatal(err)
	}
	cas, err := p.FailDomain(0)
	if err != nil || len(cas) != 4 {
		t.Fatalf("casualties=%v err=%v", cas, err)
	}
	for i, c := range cas {
		if c.Owner != "a" {
			t.Fatalf("casualty %d owner %q", i, c.Owner)
		}
		if i > 0 && cas[i].NodeID <= cas[i-1].NodeID {
			t.Fatalf("casualties not ascending: %v", cas)
		}
	}
	if got := p.DownDomains(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("down domains %v", got)
	}
	// Domain 2 is untouched free capacity (4 nodes); the down domain's
	// hibernated nodes must not be acquirable.
	if p.Free() != 4 {
		t.Fatalf("free=%d, want only the up domain's 4", p.Free())
	}
	if nodes, err := p.Acquire("c", 4); err != nil {
		t.Fatal(err)
	} else {
		for _, nd := range nodes {
			if nd.Domain == 0 {
				t.Fatalf("acquired node %d from a down domain", nd.ID)
			}
		}
	}
	if _, err := p.FailDomain(0); err == nil {
		t.Fatalf("double FailDomain must error")
	}
	if err := p.RestoreDomain(1); err == nil {
		t.Fatalf("restoring an up domain must error")
	}
	if _, err := p.FailDomain(7); err == nil {
		t.Fatalf("failing an out-of-range domain must error")
	}
	if err := p.RestoreDomain(0); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 || len(p.DownDomains()) != 0 {
		t.Fatalf("after restore: free=%d down=%v", p.Free(), p.DownDomains())
	}
	// The outage's casualties stay Failed through restoration — they re-join
	// via the lifecycle's swap or abort and a re-image.
	if got := p.FailedCount("a"); got != 4 {
		t.Fatalf("a's failed nodes after restore: %d", got)
	}
}

// TestAcquireNoPartialFailure is the multi-node acquisition audit: a failed
// acquire — plain or spread — must leave the pool byte-identical, never a
// partial grab.
func TestAcquireNoPartialFailure(t *testing.T) {
	p := NewPoolDomains(6, 2)
	if _, err := p.Acquire("a", 4); err != nil {
		t.Fatal(err)
	}
	before := p.Snapshot()
	if _, err := p.Acquire("x", 3); err == nil {
		t.Fatalf("acquire of 3 with 2 free succeeded")
	}
	if _, _, err := p.AcquireSpread("x", 3, nil); err == nil {
		t.Fatalf("spread acquire of 3 with 2 free succeeded")
	}
	after := p.Snapshot()
	if len(p.ActiveNodesOf("x")) != 0 {
		t.Fatalf("failed acquire left x owning nodes: %v", p.ActiveNodesOf("x"))
	}
	if before.ByState["hibernated"] != after.ByState["hibernated"] ||
		before.ByState["active"] != after.ByState["active"] {
		t.Fatalf("failed acquire mutated the pool: %+v → %+v", before.ByState, after.ByState)
	}
}

func TestLifecycleCutOver(t *testing.T) {
	p := NewPoolDomains(8, 2)
	eng := sim.NewEngine()
	lc := NewLifecycle(eng, p, false, true)
	if _, err := lc.Stage("inst", 3, nil); err != nil {
		t.Fatal(err)
	}
	oldIDs := p.ActiveNodesOf("inst")
	oldDom := p.DomainOf(oldIDs[0])
	// No staged nodes yet: error, nothing changes.
	if _, err := lc.CutOver("inst", "inst/respread"); err == nil {
		t.Fatalf("cut-over with no staged nodes succeeded")
	}
	if _, err := lc.Stage("inst/respread", 3, []int{oldDom}); err != nil {
		t.Fatal(err)
	}
	released, err := lc.CutOver("inst", "inst/respread")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(released, oldIDs) {
		t.Fatalf("released %v, want the 3 old nodes %v", released, oldIDs)
	}
	if doms := p.OwnerDomains("inst"); len(doms) != 1 || doms[0] == oldDom {
		t.Fatalf("inst still in domain %v after cut-over from %d", doms, oldDom)
	}
	if len(p.ActiveNodesOf("inst/respread")) != 0 {
		t.Fatalf("staging owner still holds nodes")
	}
	if p.Free() != p.Size()-3 {
		t.Fatalf("free=%d, want %d (everything but the 3 live nodes)", p.Free(), p.Size()-3)
	}
	// A staged node that failed mid-copy blocks the cut-over atomically, and
	// the abort re-images it instead of hibernating it.
	if _, err := lc.Stage("inst/respread", 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FailAny("inst/respread"); err != nil {
		t.Fatal(err)
	}
	beforeActive := p.ActiveNodesOf("inst")
	if _, err := lc.CutOver("inst", "inst/respread"); err == nil {
		t.Fatalf("cut-over with a failed staged node succeeded")
	}
	if got := p.ActiveNodesOf("inst"); len(got) != len(beforeActive) {
		t.Fatalf("failed cut-over mutated the owner: %v → %v", beforeActive, got)
	}
	lc.Abort("inst/respread")
	if p.CountState(Repairing) != 1 || p.Free() != p.Size()-4 || p.FailedCount("inst/respread") != 0 {
		t.Fatalf("abort: repairing %d, free %d, want 1 and %d", p.CountState(Repairing), p.Free(), p.Size()-4)
	}
	eng.Run(sim.Day)
	if p.CountState(Repairing) != 0 || p.Free() != p.Size()-3 {
		t.Fatalf("aborted node not re-imaged: %+v", p.Snapshot().ByState)
	}
}

func TestPoolSnapshotView(t *testing.T) {
	p := NewPoolDomains(10, 2)
	if _, _, err := p.AcquireSpread("a", 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FailAny("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FailDomain(1); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.Total != 10 || snap.Domains != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if len(snap.Down) != 1 || snap.Down[0] != 1 || !snap.ByDomain[1].Down {
		t.Fatalf("down markers: %+v", snap)
	}
	sum := 0
	for _, n := range snap.ByState {
		sum += n
	}
	if sum != snap.Total {
		t.Fatalf("by_state sums to %d of %d: %+v", sum, snap.Total, snap.ByState)
	}
	var a *OwnerPoolState
	for i := range snap.ByOwner {
		if snap.ByOwner[i].Owner == "a" {
			a = &snap.ByOwner[i]
		}
	}
	if a == nil || a.Active != 2 || a.Failed != 1 {
		t.Fatalf("owner a footprint: %+v", a)
	}
	perDomain := 0
	for _, ds := range snap.ByDomain {
		perDomain += ds.Active + ds.Hibernated + ds.Failed + ds.Repairing
	}
	if perDomain != snap.Total {
		t.Fatalf("by_domain sums to %d of %d", perDomain, snap.Total)
	}
}

// TestPoolConcurrentLifecycles interleaves Acquire/FailAny/swap/Reimage/
// Release from many goroutines under -race. Each goroutine owns a private
// owner ID and keeps its own book of node IDs; at the end every owner's view
// must match the pool exactly (no double-owned nodes) and every node must be
// accounted for (no leaks).
func TestPoolConcurrentLifecycles(t *testing.T) {
	const (
		workers = 8
		iters   = 400
	)
	p := NewPoolDomains(64, 4)
	var wg sync.WaitGroup
	type book struct {
		owner     string
		active    map[int]bool
		failed    map[int]bool
		repairing map[int]bool
	}
	books := make([]*book, workers)
	for w := 0; w < workers; w++ {
		books[w] = &book{
			owner:     string(rune('a' + w)),
			active:    map[int]bool{},
			failed:    map[int]bool{},
			repairing: map[int]bool{},
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(b *book, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0: // acquire a couple of nodes
					if nodes, err := p.Acquire(b.owner, 1+rng.Intn(2)); err == nil {
						for _, nd := range nodes {
							if b.active[nd.ID] || b.failed[nd.ID] {
								t.Errorf("%s acquired node %d it already owns", b.owner, nd.ID)
							}
							b.active[nd.ID] = true
						}
					}
				case 1: // fail one of ours
					if id, err := p.FailAny(b.owner); err == nil {
						if !b.active[id] {
							t.Errorf("%s failed node %d it did not own", b.owner, id)
						}
						delete(b.active, id)
						b.failed[id] = true
					}
				case 2: // swap a failed node
					if len(b.failed) == 0 {
						break
					}
					if id, repl, err := p.swap(b.owner); err == nil {
						if !b.failed[id] {
							t.Errorf("%s swapped node %d it did not have failed", b.owner, id)
						}
						delete(b.failed, id)
						b.repairing[id] = true
						b.active[repl.ID] = true
					}
				case 3: // finish a re-image
					for id := range b.repairing {
						if err := p.Reimage(id); err == nil {
							delete(b.repairing, id)
						}
						break
					}
				case 4: // occasionally walk away entirely
					if rng.Intn(8) == 0 {
						p.Release(b.owner)
						b.active = map[int]bool{}
						for id := range b.failed {
							b.repairing[id] = true // failed nodes still re-image
						}
						b.failed = map[int]bool{}
					}
				}
			}
		}(books[w], int64(w+1))
	}
	wg.Wait()

	// Every owner's book must match the pool exactly.
	total := 0
	for _, b := range books {
		got := p.ActiveNodesOf(b.owner)
		if len(got) != len(b.active) {
			t.Fatalf("%s: pool says %v active, book says %v", b.owner, got, b.active)
		}
		for _, id := range got {
			if !b.active[id] {
				t.Fatalf("%s: pool lists %d, book does not", b.owner, id)
			}
		}
		if gotF := p.FailedCount(b.owner); gotF != len(b.failed) {
			t.Fatalf("%s: pool says %d failed, book says %v", b.owner, gotF, b.failed)
		}
		total += len(b.active) + len(b.failed) + len(b.repairing)
	}
	// No leaks: everything not in a book is hibernated and unowned.
	if free := p.CountState(Hibernated); free != p.Size()-total {
		t.Fatalf("hibernated=%d, want %d (books account for %d of %d)",
			free, p.Size()-total, total, p.Size())
	}
}
