// The cluster-wide scarcity triage allocator. When a correlated failure
// (a whole rack/zone) takes the pool scarce, every group's recovery
// controller used to fight for the same few hibernated nodes with
// uncoordinated exponential backoff — whichever group's timer fired first
// won, regardless of how close it was to violating its SLA. The Triage
// replaces that free-for-all: exhausted lifecycles enqueue a claim ranked by
// SLA-at-risk (sliding RT-TTP deficit × tenant count) and poll on their own
// clock domain; a poll is granted only when the claim ranks inside the
// pool's current free-node budget, so scarce nodes always go to the
// worst-off group first and the losers keep serving degraded behind the
// existing brownout/admission machinery instead of burning retry cycles.
//
// The pull design keeps clock domains safe: the allocator never schedules
// onto another group's engine. Under replay every poll happens in one
// deterministic order (sim.Domains.Drive), so same-seed runs are
// byte-identical; under the service, whose domains advance concurrently,
// grants are as racy as the shared pool itself already is (best-effort, like
// every cross-domain pool acquisition).
package recovery

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// triageInterval is the claim poll period: each queued lifecycle re-evaluates
// its priority and asks for a grant once per interval on its own clock domain.
const triageInterval = time.Minute

// TriageClaim is one queued recovery's entry, snapshot for observability.
type TriageClaim struct {
	// Group and Owner locate the starved lifecycle (owner = instance ID).
	Group string `json:"group"`
	Owner string `json:"owner"`
	// Deficit is the group's sliding RT-TTP shortfall below its guarantee P
	// (0 while the guarantee still holds).
	Deficit float64 `json:"deficit"`
	// Tenants is the group's member count — the blast radius of the miss.
	Tenants int `json:"tenants"`
	// Priority is Deficit × Tenants, the SLA-at-risk ranking key.
	Priority float64 `json:"priority"`
	// Polls counts denied grants so far.
	Polls int `json:"polls"`
}

type triageClaim struct {
	key          string
	group, owner string
	deficit      float64
	tenants      int
	polls        int
}

func (c *triageClaim) priority() float64 { return c.deficit * float64(c.tenants) }

// Triage is the cluster-level allocator, shared by every group's recovery
// controller over one pool. Safe for concurrent use across clock domains.
type Triage struct {
	mu     sync.Mutex
	pool   *cluster.Pool
	claims map[string]*triageClaim

	granted  int
	enqueued int
}

// NewTriage builds an allocator over the pool.
func NewTriage(pool *cluster.Pool) *Triage {
	return &Triage{pool: pool, claims: make(map[string]*triageClaim)}
}

// Enqueue registers (or refreshes) a claim under key for owner's group. It
// reports whether the claim is new.
func (t *Triage) Enqueue(key, group, owner string, deficit float64, tenants int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.claims[key]; ok {
		c.deficit, c.tenants = deficit, tenants
		return false
	}
	t.claims[key] = &triageClaim{key: key, group: group, owner: owner, deficit: deficit, tenants: tenants}
	t.enqueued++
	return true
}

// rankLocked returns the claims ordered worst-off first. Ties break toward
// the larger blast radius, then lexical (group, owner, key) — a total order
// independent of enqueue timing, so replayed runs are deterministic.
func (t *Triage) rankLocked() []*triageClaim {
	out := make([]*triageClaim, 0, len(t.claims))
	for _, c := range t.claims {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.priority() != b.priority() {
			return a.priority() > b.priority()
		}
		if a.tenants != b.tenants {
			return a.tenants > b.tenants
		}
		if a.group != b.group {
			return a.group < b.group
		}
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		return a.key < b.key
	})
	return out
}

// TryGrant is one claim poll: the claimant refreshes its priority and asks
// for a replacement node. A grant happens only when the claim ranks within
// the pool's free-node budget; the swap itself (Replace of the owner's
// oldest failed node, or a plain acquire for instance-only failures) runs
// under the triage lock so concurrent polls cannot over-commit the pool.
// On success the claim leaves the queue and the caller schedules the
// swapped-out node's re-image; on denial the claim stays queued.
func (t *Triage) TryGrant(key string, deficit float64, tenants int) (failedID int, repl *cluster.Node, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, found := t.claims[key]
	if !found {
		return -1, nil, false
	}
	c.deficit, c.tenants = deficit, tenants
	c.polls++
	free := t.pool.Free()
	if free <= 0 {
		return -1, nil, false
	}
	rank := -1
	for i, rc := range t.rankLocked() {
		if rc.key == key {
			rank = i
			break
		}
	}
	if rank < 0 || rank >= free {
		return -1, nil, false
	}
	if ids := t.pool.FailedNodesOf(c.owner); len(ids) > 0 {
		// Pool-side record: swap the oldest failed node. A lost race against
		// a non-triage acquirer denies the poll rather than stranding the
		// failed node.
		failedID = ids[0]
		repl, err := t.pool.Replace(failedID)
		if err != nil {
			return -1, nil, false
		}
		delete(t.claims, key)
		t.granted++
		return failedID, repl, true
	}
	// Instance-only failure (no pool record): plain acquire.
	nodes, err := t.pool.Acquire(c.owner, 1)
	if err != nil {
		return -1, nil, false
	}
	delete(t.claims, key)
	t.granted++
	return -1, nodes[0], true
}

// Queued returns the outstanding claims, worst-off first.
func (t *Triage) Queued() []TriageClaim {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TriageClaim, 0, len(t.claims))
	for _, c := range t.rankLocked() {
		out = append(out, TriageClaim{
			Group: c.group, Owner: c.owner,
			Deficit: c.deficit, Tenants: c.tenants,
			Priority: c.priority(), Polls: c.polls,
		})
	}
	return out
}

// Stats returns cumulative (enqueued, granted) claim counts.
func (t *Triage) Stats() (enqueued, granted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enqueued, t.granted
}
