// Tenant interning: the submit hot path's string killer.
//
// Every layer of the per-query pipeline used to key its tenant state by the
// tenant's string ID — the router's member map, each MPPDB's deployed-data
// and running-query maps, the admission controller's bucket map. One submit
// paid five or six string hashes before any real work happened. An Interner
// assigns each tenant of a group a dense int index (a Ref) exactly once — at
// deploy time — and every per-tenant structure below the front door becomes
// a flat slice indexed by that Ref.
//
// Refs are group-local: each tenant-group owns one Interner, shared by its
// router, its MPPDB instances, and its admission controller, so a Ref
// resolved at the front door stays valid across all of them. A group's
// router submits and its admission controller admits by Ref only; the
// string APIs that remain resolve through the Interner once and delegate to
// the Ref path.
package tenant

import (
	"sync"
	"sync/atomic"
)

// Ref is a dense per-group tenant index assigned by an Interner. The zero
// Ref is a valid index; use NoRef for "absent".
type Ref int32

// NoRef marks an unresolved or unknown tenant.
const NoRef Ref = -1

// Interner assigns dense Refs to tenant IDs. Interning and string lookups
// happen at deploy and front-door time, under a lock. The hot
// path reads the other direction — an MPPDB names the tenant behind a Ref on
// every completion — so ID, IDs and Len take no lock: the append-only ID
// slice is published through an atomic pointer, and a reader loads it once.
type Interner struct {
	mu   sync.RWMutex
	byID map[string]Ref
	ids  atomic.Pointer[[]string]
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{byID: make(map[string]Ref)}
	in.ids.Store(new([]string))
	return in
}

// Intern returns the tenant's Ref, assigning the next dense index on first
// sight.
func (in *Interner) Intern(id string) Ref {
	in.mu.Lock()
	defer in.mu.Unlock()
	if ref, ok := in.byID[id]; ok {
		return ref
	}
	ids := append(*in.ids.Load(), id)
	ref := Ref(len(ids) - 1)
	in.byID[id] = ref
	// A published slice is never written again: append either fills the
	// backing array past every reader's length or copies it.
	in.ids.Store(&ids)
	return ref
}

// Lookup resolves an already-interned tenant ID.
func (in *Interner) Lookup(id string) (Ref, bool) {
	in.mu.RLock()
	ref, ok := in.byID[id]
	in.mu.RUnlock()
	return ref, ok
}

// ID returns the tenant ID behind a Ref (empty for out-of-range refs).
func (in *Interner) ID(ref Ref) string {
	ids := *in.ids.Load()
	if ref < 0 || int(ref) >= len(ids) {
		return ""
	}
	return ids[ref]
}

// IDs returns the tenant IDs interned so far, indexed by Ref. The interner
// only ever appends, so the view stays valid (and must stay unmodified) after
// the call.
func (in *Interner) IDs() []string {
	ids := *in.ids.Load()
	return ids[:len(ids):len(ids)]
}

// Len returns the number of interned tenants. Refs are always < Len.
func (in *Interner) Len() int { return len(*in.ids.Load()) }
