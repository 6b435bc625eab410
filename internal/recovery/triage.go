// The cluster-wide scarcity triage allocator: the one rule for an exhausted
// pool. When a correlated failure (a whole rack/zone) takes the pool scarce,
// every group's recovery controller would otherwise fight for the same few
// hibernated nodes, and whichever group asked first would win regardless of
// how close it was to violating its SLA. Instead a lifecycle whose swap (or
// a §5.1 scale-up whose staging) finds the pool exhausted enqueues a claim
// for its nodes ranked by SLA-at-risk (sliding RT-TTP deficit × tenant
// count) and polls on its own clock domain; a poll is granted only when the
// claim fits the free-node budget the claims ranked ahead of it leave, so
// scarce nodes always go to the worst-off group first and the losers keep
// serving degraded behind the existing brownout/admission machinery. The
// triage decides who gets nodes; the claimant's cluster.Lifecycle takes
// them, under the triage lock.
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

// TriageClaim is one queued claim, snapshot for observability.
type TriageClaim struct {
	// Group and Owner locate the starved claimant (owner = instance ID).
	Group string `json:"group"`
	Owner string `json:"owner"`
	// Nodes is how many nodes it asks for: 1 for a recovery.
	Nodes int `json:"nodes"`
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
	nodes        int
	deficit      float64
	tenants      int
	polls        int
}

func (c *triageClaim) priority() float64 { return c.deficit * float64(c.tenants) }

// Triage is the cluster-level allocator, shared by every group's recovery
// controller over one pool. Safe for concurrent use across clock domains;
// its mutators panic inside a window of the pool's gate.
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

// Enqueue is EnqueueNodes for one node.
func (t *Triage) Enqueue(key, group, owner string, deficit float64, tenants int) bool {
	return t.EnqueueNodes(key, group, owner, 1, deficit, tenants)
}

// EnqueueNodes registers (or refreshes) a claim for nodes nodes under key
// for owner's group. It reports whether the claim is new.
func (t *Triage) EnqueueNodes(key, group, owner string, nodes int, deficit float64, tenants int) bool {
	t.pool.Gate().Guard("the scarcity triage")
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.claims[key]; ok {
		c.deficit, c.tenants = deficit, tenants
		return false
	}
	t.claims[key] = &triageClaim{key: key, group: group, owner: owner, nodes: nodes, deficit: deficit, tenants: tenants}
	t.enqueued++
	return true
}

// Withdraw drops the claim under key, if queued.
func (t *Triage) Withdraw(key string) {
	t.pool.Gate().Guard("the scarcity triage")
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.claims, key)
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
// for its nodes. Worst-off first, each claim that fits the free-node budget
// still left takes its nodes from it, and one that does not fit is skipped.
// A grant happens only when the claim fits and take — the claimant's
// lifecycle swap or stage — succeeds, under the triage lock so concurrent
// polls cannot over-commit the pool. On success the claim leaves the queue;
// on denial, including a take that lost a race, it stays queued.
func (t *Triage) TryGrant(key string, deficit float64, tenants int, take func() error) bool {
	t.pool.Gate().Guard("the scarcity triage")
	t.mu.Lock()
	defer t.mu.Unlock()
	c, found := t.claims[key]
	if !found {
		return false
	}
	c.deficit, c.tenants = deficit, tenants
	c.polls++
	free := t.pool.Free()
	for _, rc := range t.rankLocked() {
		if rc.nodes > free {
			continue
		}
		if rc.key != key {
			free -= rc.nodes
			continue
		}
		if take() != nil {
			return false
		}
		delete(t.claims, key)
		t.granted++
		return true
	}
	return false
}

// Queued returns the outstanding claims, worst-off first.
func (t *Triage) Queued() []TriageClaim {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TriageClaim, 0, len(t.claims))
	for _, c := range t.rankLocked() {
		out = append(out, TriageClaim{
			Group: c.group, Owner: c.owner, Nodes: c.nodes,
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
