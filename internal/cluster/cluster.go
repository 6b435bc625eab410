// Package cluster models the shared hardware infrastructure Thrifty
// consolidates tenants onto: a pool of identical machine nodes (the thesis
// assumes homogeneous configurations, §3) with a provisioning model
// calibrated to the paper's Table 5.1 measurements.
//
// Two operations dominate elastic scaling cost (§5.1): starting machine
// nodes + initializing an MPPDB instance on them, and bulk-loading tenant
// data. Every change to a node — deploy, crash replacement (§4.4),
// re-spread after a domain outage and the §5.1 scale-up — goes through one
// Lifecycle per tenant-group, which prices it with ProvisionTime: stage the
// nodes, make them ready after start-up plus bulk load, then cut over or
// abort.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// NodeState is the lifecycle state of one machine node.
type NodeState int

const (
	// Hibernated nodes are switched off; they cost nothing but must be
	// started before use (§3c: the Deployment Master "switches
	// off/hibernates nodes that are not listed in the deployment plan").
	Hibernated NodeState = iota
	// Active nodes are running as part of some MPPDB instance.
	Active
	// Failed nodes have crashed and await replacement.
	Failed
	// Repairing nodes were swapped out of (or aborted from) their owner and
	// are being carted away and re-imaged (§4.4); they become Hibernated —
	// and thus acquirable again — only after ReimageTime.
	Repairing
)

// String returns the state name.
func (s NodeState) String() string {
	switch s {
	case Hibernated:
		return "hibernated"
	case Active:
		return "active"
	case Failed:
		return "failed"
	case Repairing:
		return "repairing"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Node is one machine node in the pool.
type Node struct {
	ID    int
	State NodeState
	// Owner is the ID of the MPPDB instance the node belongs to, or ""
	// when unassigned.
	Owner string
	// Domain is the failure domain (rack/zone) the node lives in. Nodes in
	// one domain share power and network uplinks, so they fail together;
	// correlated-failure resilience is placing an instance group's replicas
	// across ≥2 domains.
	Domain int
}

// Pool is the cluster-wide node inventory. It is safe for concurrent use:
// the per-group elastic scalers and recovery controllers draw replacement
// and scale-up nodes from one shared pool while running on different clock
// domains. Which node a caller gets depends on the order of calls, so its
// mutators panic inside a window of its gate (sim.Gate).
type Pool struct {
	mu      sync.Mutex
	nodes   []*Node
	domains int
	down    map[int]bool   // failure domains currently offline
	failed  map[string]int // each owner's Failed nodes
	gate    *sim.Gate
}

// SetGate ties the pool to the gate of the domains that draw on it.
func (p *Pool) SetGate(g *sim.Gate) { p.gate = g }

// Gate returns the pool's gate (nil: none).
func (p *Pool) Gate() *sim.Gate { return p.gate }

func (p *Pool) lockMut() {
	p.gate.Guard("the node pool")
	p.mu.Lock()
}

// NewPool creates a pool of n hibernated nodes in a single failure domain —
// the pre-domain layout every byte-deterministic replay pins.
func NewPool(n int) *Pool { return NewPoolDomains(n, 1) }

// NewPoolDomains creates a pool of n hibernated nodes striped over d failure
// domains as contiguous equal blocks (rack-style: consecutive node IDs share
// a rack). d is clamped to [1, n].
func NewPoolDomains(n, d int) *Pool {
	if d < 1 {
		d = 1
	}
	if d > n && n > 0 {
		d = n
	}
	p := &Pool{nodes: make([]*Node, n), domains: d, down: make(map[int]bool), failed: make(map[string]int)}
	for i := range p.nodes {
		p.nodes[i] = &Node{ID: i, State: Hibernated, Domain: i * d / n}
	}
	return p
}

// Size returns the total number of nodes in the pool.
func (p *Pool) Size() int { return len(p.nodes) }

// Domains returns the number of failure domains the pool is striped over.
func (p *Pool) Domains() int { return p.domains }

// DomainOf returns the failure domain of the node with the given ID, or -1
// for an unknown ID.
func (p *Pool) DomainOf(id int) int {
	if id < 0 || id >= len(p.nodes) {
		return -1
	}
	return p.nodes[id].Domain
}

// CountState returns the number of nodes in the given state.
func (p *Pool) CountState(s NodeState) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, nd := range p.nodes {
		if nd.State == s {
			n++
		}
	}
	return n
}

// Acquire marks n hibernated nodes Active on behalf of owner and returns
// them. It fails without side effects when fewer than n nodes are free.
func (p *Pool) Acquire(owner string, n int) ([]*Node, error) {
	p.lockMut()
	defer p.mu.Unlock()
	return p.acquireLocked(owner, n)
}

// acquireLocked is the shared acquisition core. It collects candidates
// first and mutates only once n are found, so a failed acquire — like a
// failed swap — leaves the pool untouched (no partial acquisition).
// Nodes in a down failure domain are never handed out.
func (p *Pool) acquireLocked(owner string, n int) ([]*Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: acquire of %d nodes", n)
	}
	var free []*Node
	for _, nd := range p.nodes {
		if nd.State == Hibernated && !p.down[nd.Domain] {
			free = append(free, nd)
			if len(free) == n {
				break
			}
		}
	}
	if len(free) < n {
		return nil, fmt.Errorf("cluster: need %d nodes, only %d hibernated (pool %d)", n, len(free), len(p.nodes))
	}
	for _, nd := range free {
		nd.State = Active
		nd.Owner = owner
	}
	return free, nil
}

// AcquireSpread marks n hibernated nodes Active for owner with a spread
// preference: it tries to place all n inside one up failure domain that is
// not in avoid (the domains the owner's sibling instances already occupy),
// choosing the domain with the most free nodes (ties to the lowest index).
// When no avoided-free domain can host n whole, it falls back to any single
// up domain, and finally to a plain cross-domain acquire — capacity beats
// spread purity. Like Acquire, a failure leaves no side effects. It returns
// the nodes plus the sorted distinct domains they landed in.
func (p *Pool) AcquireSpread(owner string, n int, avoid []int) ([]*Node, []int, error) {
	p.lockMut()
	defer p.mu.Unlock()
	if n <= 0 {
		return nil, nil, fmt.Errorf("cluster: acquire of %d nodes", n)
	}
	avoided := make(map[int]bool, len(avoid))
	for _, d := range avoid {
		avoided[d] = true
	}
	freeBy := make([]int, p.domains)
	for _, nd := range p.nodes {
		if nd.State == Hibernated && !p.down[nd.Domain] {
			freeBy[nd.Domain]++
		}
	}
	pick := func(skipAvoided bool) int {
		best, bestFree := -1, 0
		for d := 0; d < p.domains; d++ {
			if skipAvoided && avoided[d] {
				continue
			}
			if freeBy[d] >= n && freeBy[d] > bestFree {
				best, bestFree = d, freeBy[d]
			}
		}
		return best
	}
	dom := pick(true)
	if dom < 0 {
		dom = pick(false)
	}
	if dom < 0 {
		// No single domain fits; spread the instance itself across domains
		// rather than refuse (the fallback keeps deployments working on a
		// fragmented pool).
		nodes, err := p.acquireLocked(owner, n)
		if err != nil {
			return nil, nil, err
		}
		return nodes, distinctDomains(nodes), nil
	}
	free := make([]*Node, 0, n)
	for _, nd := range p.nodes {
		if nd.Domain == dom && nd.State == Hibernated {
			free = append(free, nd)
			if len(free) == n {
				break
			}
		}
	}
	for _, nd := range free {
		nd.State = Active
		nd.Owner = owner
	}
	return free, []int{dom}, nil
}

func distinctDomains(nodes []*Node) []int {
	seen := map[int]bool{}
	for _, nd := range nodes {
		seen[nd.Domain] = true
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Release gives up all of owner's nodes and reports how many it released:
// Active nodes hibernate at once, Failed ones go to Repairing and hibernate
// only after their re-image (Lifecycle.Abort schedules it).
func (p *Pool) Release(owner string) int {
	n, _ := p.release(owner)
	return n
}

// release is Release, also returning the IDs it sent to Repairing.
func (p *Pool) release(owner string) (n int, repairing []int) {
	p.lockMut()
	defer p.mu.Unlock()
	for _, nd := range p.nodes {
		if nd.Owner != owner {
			continue
		}
		if nd.State == Failed {
			nd.State = Repairing
			repairing = append(repairing, nd.ID)
		} else {
			nd.State = Hibernated
		}
		nd.Owner = ""
		n++
	}
	delete(p.failed, owner)
	return n, repairing
}

// swap replaces owner's lowest-ID Failed node by a fresh hibernated one
// (§4.4: "Thrifty will replace a failed node by starting a new node upon
// receiving node failure notification") and returns the failed node's ID;
// with no Failed record for owner it acquires one node and returns -1. The
// failed node enters Repairing — carted away and re-imaged — and re-joins
// the free list only through Reimage after ReimageTime. A failure leaves the
// pool untouched.
func (p *Pool) swap(owner string) (failed int, repl *Node, err error) {
	p.lockMut()
	defer p.mu.Unlock()
	var old *Node
	for _, nd := range p.nodes {
		if p.failed[owner] == 0 {
			break
		}
		if nd.State == Failed && nd.Owner == owner {
			old = nd
			break
		}
	}
	nodes, err := p.acquireLocked(owner, 1)
	if err != nil {
		return -1, nil, err
	}
	if old == nil {
		return -1, nodes[0], nil
	}
	p.failed[owner]--
	old.State = Repairing
	old.Owner = ""
	return old.ID, nodes[0], nil
}

// Reimage completes a repairing node's re-image: it becomes Hibernated and
// acquirable again. Lifecycle schedules it ReimageTime after a swap or an
// abort.
func (p *Pool) Reimage(id int) error {
	p.lockMut()
	defer p.mu.Unlock()
	if id < 0 || id >= len(p.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	nd := p.nodes[id]
	if nd.State != Repairing {
		return fmt.Errorf("cluster: node %d is %v, not repairing", id, nd.State)
	}
	nd.State = Hibernated
	return nil
}

// FailedCount returns how many of owner's nodes are Failed, without a scan.
func (p *Pool) FailedCount(owner string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed[owner]
}

// FailAny fails owner's lowest-ID active node and returns its ID — the
// pool-side half of a node-failure injection (the instance side is
// mppdb.FailNode).
func (p *Pool) FailAny(owner string) (int, error) {
	p.lockMut()
	defer p.mu.Unlock()
	for _, nd := range p.nodes {
		if nd.State == Active && nd.Owner == owner {
			nd.State = Failed
			p.failed[owner]++
			return nd.ID, nil
		}
	}
	return -1, fmt.Errorf("cluster: owner %q has no active node", owner)
}

// Casualty is one node a domain outage took down: the node's ID and the
// MPPDB instance that owned it (so the injector/operator can propagate the
// failure to the instance).
type Casualty struct {
	NodeID int
	Owner  string
}

// FailDomain takes a whole failure domain offline: every Active node in the
// domain goes Failed (returned as casualties, ascending node ID), hibernated
// and repairing nodes stay in their states but become unacquirable until
// RestoreDomain. Failing an already-down domain is an error.
func (p *Pool) FailDomain(d int) ([]Casualty, error) {
	p.lockMut()
	defer p.mu.Unlock()
	if d < 0 || d >= p.domains {
		return nil, fmt.Errorf("cluster: no domain %d (pool has %d)", d, p.domains)
	}
	if p.down[d] {
		return nil, fmt.Errorf("cluster: domain %d already down", d)
	}
	p.down[d] = true
	var out []Casualty
	for _, nd := range p.nodes {
		if nd.Domain == d && nd.State == Active {
			nd.State = Failed
			p.failed[nd.Owner]++
			out = append(out, Casualty{NodeID: nd.ID, Owner: nd.Owner})
		}
	}
	return out, nil
}

// RestoreDomain brings a failed domain back: its hibernated nodes become
// acquirable again. Nodes the outage marked Failed stay Failed — a crashed
// node is re-imaged through the lifecycle's swap or abort even after its
// rack returns.
func (p *Pool) RestoreDomain(d int) error {
	p.lockMut()
	defer p.mu.Unlock()
	if d < 0 || d >= p.domains {
		return fmt.Errorf("cluster: no domain %d (pool has %d)", d, p.domains)
	}
	if !p.down[d] {
		return fmt.Errorf("cluster: domain %d is not down", d)
	}
	delete(p.down, d)
	return nil
}

// DownDomains returns the currently offline failure domains, ascending.
func (p *Pool) DownDomains() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.down))
	for d := range p.down {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Free returns the number of nodes acquirable right now: hibernated and not
// in a down domain.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeLocked()
}

func (p *Pool) freeLocked() int {
	n := 0
	for _, nd := range p.nodes {
		if nd.State == Hibernated && !p.down[nd.Domain] {
			n++
		}
	}
	return n
}

// OwnerDomains returns the sorted distinct failure domains of owner's
// active nodes.
func (p *Pool) OwnerDomains(owner string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[int]bool{}
	for _, nd := range p.nodes {
		if nd.State == Active && nd.Owner == owner {
			seen[nd.Domain] = true
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// ActiveNodesOf returns the IDs of owner's active nodes, ascending.
func (p *Pool) ActiveNodesOf(owner string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for _, nd := range p.nodes {
		if nd.State == Active && nd.Owner == owner {
			out = append(out, nd.ID)
		}
	}
	return out
}

// cutOver adopts the nodes staged (all of which must still be Active) under
// owner and hibernates owner's previous active nodes, returning their IDs.
// On any precondition failure nothing changes.
func (p *Pool) cutOver(owner, staged string) ([]int, error) {
	p.lockMut()
	defer p.mu.Unlock()
	n := 0
	for _, nd := range p.nodes {
		if nd.Owner != staged {
			continue
		}
		if nd.State != Active {
			return nil, fmt.Errorf("cluster: staged node %d is %v, not active", nd.ID, nd.State)
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: no staged nodes for %q", staged)
	}
	var released []int
	for _, nd := range p.nodes {
		switch {
		case nd.Owner == staged:
			nd.Owner = owner
		case nd.Owner == owner && nd.State == Active:
			nd.State = Hibernated
			nd.Owner = ""
			released = append(released, nd.ID)
		}
	}
	return released, nil
}

// OwnerPoolState summarizes one instance's pool footprint.
type OwnerPoolState struct {
	Owner   string `json:"owner"`
	Active  int    `json:"active"`
	Failed  int    `json:"failed"`
	Domains []int  `json:"domains"`
}

// DomainPoolState summarizes one failure domain.
type DomainPoolState struct {
	Domain     int  `json:"domain"`
	Down       bool `json:"down"`
	Hibernated int  `json:"hibernated"`
	Active     int  `json:"active"`
	Failed     int  `json:"failed"`
	Repairing  int  `json:"repairing"`
}

// PoolSnapshot is a consistent point-in-time view of the pool for
// observability endpoints.
type PoolSnapshot struct {
	Total    int               `json:"total"`
	Domains  int               `json:"domains"`
	Down     []int             `json:"down_domains,omitempty"`
	ByState  map[string]int    `json:"by_state"`
	ByDomain []DomainPoolState `json:"by_domain"`
	ByOwner  []OwnerPoolState  `json:"by_owner"`
}

// Snapshot returns the pool's current state: totals by node state, the
// per-domain breakdown (with down markers), and the per-owner footprint
// sorted by owner ID.
func (p *Pool) Snapshot() PoolSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := PoolSnapshot{
		Total:    len(p.nodes),
		Domains:  p.domains,
		ByState:  map[string]int{},
		ByDomain: make([]DomainPoolState, p.domains),
	}
	for d := range snap.ByDomain {
		snap.ByDomain[d] = DomainPoolState{Domain: d, Down: p.down[d]}
	}
	for d := range p.down {
		snap.Down = append(snap.Down, d)
	}
	sort.Ints(snap.Down)
	owners := map[string]*OwnerPoolState{}
	ownerDoms := map[string]map[int]bool{}
	for _, nd := range p.nodes {
		snap.ByState[nd.State.String()]++
		ds := &snap.ByDomain[nd.Domain]
		switch nd.State {
		case Hibernated:
			ds.Hibernated++
		case Active:
			ds.Active++
		case Failed:
			ds.Failed++
		case Repairing:
			ds.Repairing++
		}
		if nd.Owner == "" {
			continue
		}
		o := owners[nd.Owner]
		if o == nil {
			o = &OwnerPoolState{Owner: nd.Owner}
			owners[nd.Owner] = o
			ownerDoms[nd.Owner] = map[int]bool{}
		}
		switch nd.State {
		case Active:
			o.Active++
			ownerDoms[nd.Owner][nd.Domain] = true
		case Failed:
			o.Failed++
		}
	}
	names := make([]string, 0, len(owners))
	for name := range owners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := owners[name]
		for d := range ownerDoms[name] {
			o.Domains = append(o.Domains, d)
		}
		sort.Ints(o.Domains)
		snap.ByOwner = append(snap.ByOwner, *o)
	}
	return snap
}

// Provisioning model, calibrated to Table 5.1.
//
// Node starting + MPPDB initialization was measured at 462 s for 2 nodes up
// to 1779 s for 10 nodes; a least-squares fit gives ~182 s fixed + ~164 s per
// node. Bulk loading ran at ≈1.2 GB/min (≈50.5 s/GB) regardless of instance
// size; with the MPPDB's parallel-loading option the rate scales with the
// node count (the thesis' Fig 7.7 scaling event loads a 4-node tenant's
// 400 GB in ≈5000 s, i.e. 50 s/GB spread over 4 loader streams).
const (
	startupFixed   = 182 * time.Second
	startupPerNode = 164 * time.Second
	loadSecPerGB   = 50.4
	loadFixed      = 60 * time.Second
	// reimageTime is how long a swapped-out node spends being carted away
	// and re-imaged before it can hibernate in the free list again. The
	// thesis gives no measurement; re-writing a machine image is of the same
	// order as starting + initializing one node, so we model it at twice the
	// single-node startup cost.
	reimageTime = 2 * (startupFixed + startupPerNode)
)

// ReimageTime returns the modeled time to re-image a swapped-out node before
// it becomes acquirable again.
func ReimageTime() time.Duration { return reimageTime }

// StartupTime returns the modeled time to start n machine nodes and
// initialize an MPPDB instance across them.
func StartupTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return startupFixed + time.Duration(n)*startupPerNode
}

// LoadTime returns the modeled time to bulk load dataGB of tenant data into
// an n-node MPPDB. With parallel loading the per-GB cost is divided across
// the nodes; without it, the loader is a single stream at ≈1.2 GB/min.
func LoadTime(dataGB float64, n int, parallel bool) time.Duration {
	if dataGB <= 0 {
		return 0
	}
	sec := loadSecPerGB * dataGB
	if parallel && n > 1 {
		sec /= float64(n)
	}
	return loadFixed + time.Duration(sec*float64(time.Second))
}

// ProvisionTime is the Table 5.1 price of bringing an n-node MPPDB up with
// dataGB bulk-loaded: start-up plus load.
func ProvisionTime(n int, dataGB float64, parallel bool) time.Duration {
	return StartupTime(n) + LoadTime(dataGB, n, parallel)
}
