// Package mppdb simulates a massively parallel processing relational
// database instance — the execution substrate the paper runs its tenants on.
//
// The model captures the two behaviours the paper's consolidation design is
// built around (Fig 1.1):
//
//   - Isolated latency follows the query class' scale-out profile (package
//     queries): near-linear for scan-dominated queries, plateauing for
//     shuffle/coordination-heavy ones.
//   - Concurrent analytical queries on the same instance contend for I/O.
//     We model the instance as a processor-sharing server: a query's service
//     demand equals its isolated latency on this instance, and k concurrent
//     queries each progress at rate 1/k. Two concurrent Q1 instances thus
//     take ≈2× their isolated latency (the paper's 2T-CON line), while
//     sequential submissions are unaffected (xT-SEQ). The server is
//     weight-fair: under shared-work execution (SetSharing) a merged batch
//     holds one scheduler share per member, so merging reduces work without
//     reducing the members' share of the machine.
//
// Instances also model tenant deployment (bulk loading, package cluster's
// timing model), degraded operation under node failure, and report per-query
// results with slowdown relative to both the instance-isolated latency and
// the tenant's SLA target.
//
// Per-tenant state (deployed data, running counts) is keyed by interned
// tenant refs (package tenant): flat slices indexed by the group-local dense
// Ref replace the string-keyed maps that used to dominate the submit
// profile. The string API remains as a thin shim over the ref path.
package mppdb

import (
	"fmt"
	"sort"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// State is the lifecycle state of an MPPDB instance.
type State int

const (
	// Provisioning: machine nodes are starting and the MPPDB is being
	// initialized.
	Provisioning State = iota
	// Loading: tenant data is being bulk loaded.
	Loading
	// Ready: the instance serves queries.
	Ready
	// Stopped: the instance was shut down.
	Stopped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Loading:
		return "loading"
	case Ready:
		return "ready"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Result describes one completed query execution.
type Result struct {
	Tenant string
	Class  *queries.Class
	Submit sim.Time
	Finish sim.Time
	// Isolated is what the query would have taken on this instance with no
	// concurrent queries.
	Isolated sim.Time
	// MaxConcurrency is the largest number of queries resident on the
	// instance at any point during this execution (including this one).
	// Under shared-work execution residents include queries queued for the
	// next batch of their class, so the 2T-CON "two concurrent queries"
	// regression metric keeps its meaning in either mode.
	MaxConcurrency int
	// EffectiveConcurrency is the largest number of processor-sharing
	// participants during this execution: shared batches count once however
	// many member queries they merge. Equal to MaxConcurrency when sharing
	// is off.
	EffectiveConcurrency int
}

// Latency returns the observed wall-clock latency.
func (r Result) Latency() sim.Time { return r.Finish - r.Submit }

// Slowdown returns observed latency / isolated latency on this instance;
// 1.0 means the query ran as if alone.
func (r Result) Slowdown() float64 {
	if r.Isolated <= 0 {
		return 1
	}
	return float64(r.Latency()) / float64(r.Isolated)
}

// exec is one in-flight query. Execs are recycled through a per-instance
// freelist; idx tracks the slot in the live slice so removal is O(1).
type exec struct {
	id        int64
	ref       tenant.Ref
	class     *queries.Class
	submit    sim.Time
	isolated  sim.Time
	remaining float64 // seconds of dedicated-instance work left
	maxConc   int
	idx       int // position in Instance.execs; -1 once finished
	// tag correlates the pooled completion path (SubmitTagged /
	// SetCompletionHandler); done is the legacy per-call closure and is nil
	// on the tagged path.
	tag    uint64
	tagged bool
	done   func(Result)
	// members is non-nil only under shared-work execution: the logical
	// queries merged into this batch. ref/tag/tagged/done above are unused
	// then — each member carries its own. maxIso/sumIso aggregate the
	// members' isolated latencies (seconds) so a late joiner's marginal
	// shared demand can be derived incrementally.
	members []batchMember
	maxIso  float64
	sumIso  float64
}

// liveKey identifies an attachable in-flight shared scan: one tenant's
// queries of one class. Distinct tenants scan distinct databases, so there
// is no shareable work across tenants even for the same query template —
// only a tenant's own same-class queries (its batch actions) merge.
type liveKey struct {
	ref   tenant.Ref
	class *queries.Class
}

// execWeight is an exec's processor-sharing weight: one share per merged
// logical query. A plain exec (members nil) weighs 1.
func execWeight(ex *exec) int {
	if n := len(ex.members); n > 0 {
		return n
	}
	return 1
}

// batchMember is one logical query merged into a shared batch.
type batchMember struct {
	ref    tenant.Ref
	submit sim.Time
	iso    sim.Time
	maxRes int // peak instance residency while in flight
	tag    uint64
	tagged bool
	done   func(Result)
}

// Instance is one simulated MPPDB.
type Instance struct {
	id    string
	nodes int
	eng   *sim.Engine
	state State
	in    *tenant.Interner

	// Per-tenant state, indexed by the group interner's dense refs. A ref is
	// deployed here iff deployed[ref]; slices may be shorter than the
	// interner when other instances interned tenants first, so reads bounds-
	// check.
	tenantGB []float64
	deployed []bool
	running  []int32

	// Processor-sharing executor state. execs is the live set (swap-remove
	// on completion: every consumer of the slice — advance, reschedule,
	// maxConc — is iteration-order independent).
	execs      []*exec
	freeExecs  []*exec
	nextExecID int64
	lastTouch  sim.Time
	// weightSum is the total scheduler weight of the live set. Plain execs
	// weigh 1; a shared batch weighs one share per live member, so merging
	// never shrinks the capacity share its members would have held unmerged.
	// With sharing off every weight is 1 and weightSum == len(execs).
	weightSum int

	// completion is the single outstanding predicted-completion event
	// (engine-owned, recycled); nextDone is the exec it targets and
	// completeCb the one persistent callback shared by every reschedule.
	completion *sim.Event
	nextDone   *exec
	completeCb func(sim.Time)

	// onDone receives completions of SubmitTagged queries with their tag.
	onDone func(Result, uint64)

	// Shared-work execution state (SetSharing). A tenant's same-class
	// queries merge into batches: live maps a (tenant, class) pair to its
	// in-flight batch, resident counts logical in-flight queries (all batch
	// members), which equals len(execs) only when sharing is off.
	// sharedBatches/sharedJoins are cumulative instance counters.
	sharing       bool
	resident      int
	live          map[liveKey]*exec
	sharedBatches uint64
	sharedJoins   uint64

	failedNodes int
	// slowFactor models a fail-slow (gray) fault: the whole instance runs at
	// this fraction of nominal speed on top of any node-loss degradation.
	// 1.0 means healthy; multiplication by exactly 1.0 is IEEE-exact, so an
	// instance that never sees SetSlowdown is bit-identical to one predating
	// the field.
	slowFactor float64

	// Telemetry (optional): service/sojourn histograms and the live
	// concurrency level, labelled by instance.
	tel        *telemetry.Hub
	mService   *telemetry.Histogram
	mSojourn   *telemetry.Histogram
	mRunning   *telemetry.Gauge
	mCompleted *telemetry.Counter
	// Registered only under sharing so a sharing-off /metrics surface is
	// byte-identical to one predating the mode.
	mSharedBatches *telemetry.Counter
	mSharedJoins   *telemetry.Counter
}

// New creates an instance that is immediately Ready (provisioning timing is
// the Deployment Master's concern; tests and the router use ready
// instances directly). The instance owns a private interner; production
// groups share one across router, instances, and admission via NewInterned.
func New(eng *sim.Engine, id string, nodes int) *Instance {
	return NewInterned(eng, id, nodes, tenant.NewInterner())
}

// NewInterned creates a Ready instance whose per-tenant state is keyed by
// the given shared interner, so refs resolved by the group's router are
// valid on this instance directly.
func NewInterned(eng *sim.Engine, id string, nodes int, in *tenant.Interner) *Instance {
	if nodes < 1 {
		panic(fmt.Sprintf("mppdb: instance %q with %d nodes", id, nodes))
	}
	m := &Instance{
		id:         id,
		nodes:      nodes,
		eng:        eng,
		state:      Ready,
		in:         in,
		slowFactor: 1,
	}
	m.completeCb = func(now sim.Time) {
		// The handle is dead the instant the event fires: drop it before
		// anything can reschedule (the engine recycles it after we return).
		m.completion = nil
		m.complete(m.nextDone)
	}
	return m
}

// Interner returns the interner keying this instance's per-tenant state.
func (m *Instance) Interner() *tenant.Interner { return m.in }

// SetTelemetry attaches a telemetry hub: per-query service-demand and
// sojourn-time histograms plus the instance's concurrency level. A nil hub
// disables instrumentation.
func (m *Instance) SetTelemetry(h *telemetry.Hub) {
	m.tel = h
	if h == nil {
		return
	}
	m.mService = h.Registry.Histogram("thrifty_mppdb_service_seconds", nil, "mppdb", m.id)
	m.mSojourn = h.Registry.Histogram("thrifty_mppdb_sojourn_seconds", nil, "mppdb", m.id)
	m.mRunning = h.Registry.Gauge("thrifty_mppdb_running", "mppdb", m.id)
	m.mCompleted = h.Registry.Counter("thrifty_mppdb_completed_total", "mppdb", m.id)
	if m.sharing {
		m.mSharedBatches = h.Registry.Counter("thrifty_mppdb_shared_batches_total", "mppdb", m.id)
		m.mSharedJoins = h.Registry.Counter("thrifty_mppdb_shared_joins_total", "mppdb", m.id)
	}
}

// SetCompletionHandler installs the pooled completion path: queries started
// with SubmitTagged report here with their submit-time tag instead of
// through a per-call closure.
func (m *Instance) SetCompletionHandler(fn func(Result, uint64)) { m.onDone = fn }

// SetSharing switches shared-work execution on or off. When on, a tenant's
// concurrent same-class queries execute as one shared scan: the first query
// starts a batch with service demand maxIso + σ·(ΣIso − maxIso)
// (queries.SharedDemand). A query of the same (tenant, class) arriving
// while the batch runs attaches to it in flight: the batch's remaining
// demand grows by exactly the joiner's marginal shared cost (σ·iso — the
// increase of the SharedDemand aggregate), and every member finishes when
// the batch does. The already-scanned prefix a late joiner missed is
// absorbed into the σ share — the circular-scan discipline of shared-scan
// systems, where a joiner picks up the scan mid-cycle and the wrap-around
// rides the same arm.
//
// A batch is scheduled under WEIGHTED processor sharing with one share per
// live member — k merged queries hold exactly the k shares they would have
// held unmerged. Keeping the share while shrinking the demand (from ΣIso to
// the σ aggregate) is what makes sharing safe: the batch finishes strictly
// earlier than its members would have under plain processor sharing, and
// its early exit only frees capacity for bystanders. Folding k queries into
// ONE share instead would starve exactly the queries being merged — the
// share would drop k-fold while the demand only drops to (1+(k−1)σ)/k.
//
// Attachment is deterministic FCFS; joiners never queue, so a live window
// is one shared scan, not a convoy. Sharing never crosses tenants: distinct
// tenants scan distinct databases, so the same query template on two
// tenants has no common work — their queries stay independent
// processor-sharing participants exactly as with sharing off. Queries of
// distinct classes never interact either, and sharing-off behaviour is
// byte-identical to an instance predating this mode (all weights are 1).
// The mode can only be toggled while the instance is idle.
func (m *Instance) SetSharing(on bool) error {
	if m.resident > 0 || len(m.execs) > 0 {
		return fmt.Errorf("mppdb %s: cannot toggle sharing with queries in flight", m.id)
	}
	m.sharing = on
	if on && m.live == nil {
		m.live = make(map[liveKey]*exec)
	}
	return nil
}

// Sharing reports whether shared-work execution is enabled.
func (m *Instance) Sharing() bool { return m.sharing }

// SharedStats returns the cumulative shared-execution counters: batches is
// the number of batches that became multi-member (counted once, when the
// second member attaches), joins the number of queries that attached to an
// in-flight shared scan instead of entering processor sharing on their own.
func (m *Instance) SharedStats() (batches, joins uint64) {
	return m.sharedBatches, m.sharedJoins
}

// ID returns the instance identifier.
func (m *Instance) ID() string { return m.id }

// Nodes returns the instance's degree of parallelism.
func (m *Instance) Nodes() int { return m.nodes }

// State returns the current lifecycle state.
func (m *Instance) State() State { return m.state }

// SetState transitions the lifecycle state; the Deployment Master drives
// Provisioning → Loading → Ready.
func (m *Instance) SetState(s State) { m.state = s }

// ensure grows the per-ref slices to cover ref.
func (m *Instance) ensure(ref tenant.Ref) {
	for int(ref) >= len(m.tenantGB) {
		m.tenantGB = append(m.tenantGB, 0)
		m.deployed = append(m.deployed, false)
		m.running = append(m.running, 0)
	}
}

// DeployTenantRef registers a tenant schema of dataGB by interned ref.
func (m *Instance) DeployTenantRef(ref tenant.Ref, dataGB float64) {
	if ref < 0 {
		return
	}
	m.ensure(ref)
	m.tenantGB[ref] = dataGB
	m.deployed[ref] = true
}

// DeployTenant registers a tenant schema of dataGB on this instance. The
// bulk-load *timing* is applied by the caller (Deployment Master / elastic
// scaler) via cluster.LoadTime; Deploy itself is bookkeeping.
func (m *Instance) DeployTenant(tenantID string, dataGB float64) {
	m.DeployTenantRef(m.in.Intern(tenantID), dataGB)
}

// RemoveTenantRef drops a tenant schema by ref.
func (m *Instance) RemoveTenantRef(ref tenant.Ref) {
	if ref < 0 || int(ref) >= len(m.deployed) {
		return
	}
	m.deployed[ref] = false
	m.tenantGB[ref] = 0
}

// RemoveTenant drops a tenant schema.
func (m *Instance) RemoveTenant(tenantID string) {
	if ref, ok := m.in.Lookup(tenantID); ok {
		m.RemoveTenantRef(ref)
	}
}

// HasTenantRef reports whether the ref's data is deployed here.
func (m *Instance) HasTenantRef(ref tenant.Ref) bool {
	return ref >= 0 && int(ref) < len(m.deployed) && m.deployed[ref]
}

// HasTenant reports whether the tenant's data is deployed here.
func (m *Instance) HasTenant(tenantID string) bool {
	ref, ok := m.in.Lookup(tenantID)
	return ok && m.HasTenantRef(ref)
}

// Tenants returns the deployed tenant IDs, sorted.
func (m *Instance) Tenants() []string {
	var out []string
	for ref, dep := range m.deployed {
		if dep {
			out = append(out, m.in.ID(tenant.Ref(ref)))
		}
	}
	sort.Strings(out)
	return out
}

// TenantDataGB returns the total deployed data volume in GB.
func (m *Instance) TenantDataGB() float64 {
	var gb float64
	for ref, dep := range m.deployed {
		if dep {
			gb += m.tenantGB[ref]
		}
	}
	return gb
}

// Snapshot is a point-in-time copy of an instance's externally visible
// state. Runtime shards hand snapshots across clock-domain boundaries so
// read-only consumers (the service's group endpoints) never touch a live
// instance without holding its domain.
type Snapshot struct {
	ID          string
	Nodes       int
	State       State
	Running     int
	FailedNodes int
}

// Snapshot captures the instance's current state. The caller must hold the
// instance's clock domain (or otherwise be the engine's single driver).
func (m *Instance) Snapshot() Snapshot {
	return Snapshot{
		ID:          m.id,
		Nodes:       m.nodes,
		State:       m.state,
		Running:     m.Running(),
		FailedNodes: m.failedNodes,
	}
}

// Busy reports whether any query is currently executing (§4.3's definition:
// an MPPDB is free when it is not serving any queries). Queries queued for a
// class's next shared batch count as executing.
func (m *Instance) Busy() bool {
	if m.sharing {
		return m.resident > 0
	}
	return len(m.execs) > 0
}

// Running returns the number of in-flight logical queries: every submitted,
// unfinished query counts once, whether it runs alone, inside a shared
// batch, or queued for its class's next batch.
func (m *Instance) Running() int {
	if m.sharing {
		return m.resident
	}
	return len(m.execs)
}

// EffectiveRunning returns the number of processor-sharing participants:
// a shared batch counts once however many queries it merges. Equal to
// Running when sharing is off; sharing-aware capacity decisions (admission
// brownout) read this instead of the raw residency.
func (m *Instance) EffectiveRunning() int { return len(m.execs) }

// RefRunning returns the number of in-flight queries of one tenant ref.
func (m *Instance) RefRunning(ref tenant.Ref) int {
	if ref < 0 || int(ref) >= len(m.running) {
		return 0
	}
	return int(m.running[ref])
}

// TenantRunning returns the number of in-flight queries of one tenant.
func (m *Instance) TenantRunning(tenantID string) int {
	ref, ok := m.in.Lookup(tenantID)
	if !ok {
		return 0
	}
	return m.RefRunning(ref)
}

// FailNode degrades the instance by one node (the MPPDB "can still stay
// online even with some node failure", §4.4). Execution slows
// proportionally until RepairNode is called.
func (m *Instance) FailNode() error {
	if m.failedNodes >= m.nodes-1 {
		return fmt.Errorf("mppdb %s: cannot fail %d of %d nodes", m.id, m.failedNodes+1, m.nodes)
	}
	m.advance()
	m.failedNodes++
	m.reschedule()
	return nil
}

// RepairNode restores one failed node.
func (m *Instance) RepairNode() error {
	if m.failedNodes == 0 {
		return fmt.Errorf("mppdb %s: no failed node to repair", m.id)
	}
	m.advance()
	m.failedNodes--
	m.reschedule()
	return nil
}

// FailedNodes returns the number of currently failed nodes.
func (m *Instance) FailedNodes() int { return m.failedNodes }

// speed returns the instance's aggregate progress rate: 1.0 healthy, scaled
// down by failed nodes and any fail-slow factor. The node-loss ratio is
// computed first so runs that never set a slowdown multiply by exactly 1.0.
func (m *Instance) speed() float64 {
	return float64(m.nodes-m.failedNodes) / float64(m.nodes) * m.slowFactor
}

// SpeedFactor returns the instance's current progress rate: 1.0 healthy,
// (nodes-failed)/nodes degraded, further scaled by any fail-slow factor.
// Query latency scales by exactly its inverse while the instance is
// otherwise idle (§4.4: the MPPDB "can still stay online even with some node
// failure", just slower).
func (m *Instance) SpeedFactor() float64 { return m.speed() }

// SetSlowdown imposes (or clears, with factor 1) a fractional fail-slow
// fault: the instance progresses at factor× its node-loss-adjusted speed
// until the next call. Unlike FailNode this models gray failure — the
// instance still heartbeats and accepts queries, it is just slow.
func (m *Instance) SetSlowdown(factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("mppdb %s: slowdown factor %v outside (0, 1]", m.id, factor)
	}
	m.advance()
	m.slowFactor = factor
	m.reschedule()
	return nil
}

// Slowdown returns the current fail-slow factor (1.0 when healthy).
func (m *Instance) Slowdown() float64 { return m.slowFactor }

// IsolatedLatencyRef returns the latency the query class would see on this
// instance, alone and healthy, for the given tenant ref's data.
func (m *Instance) IsolatedLatencyRef(ref tenant.Ref, class *queries.Class) (sim.Time, error) {
	if !m.HasTenantRef(ref) {
		return 0, fmt.Errorf("mppdb %s: tenant %q not deployed", m.id, m.in.ID(ref))
	}
	return sim.Duration(class.Latency(m.tenantGB[ref], m.nodes)), nil
}

// Submit starts executing a query for a deployed tenant. done (optional) is
// invoked when the query completes. Submit returns the isolated latency so
// callers can set expectations without re-deriving it.
func (m *Instance) Submit(tenantID string, class *queries.Class, done func(Result)) (sim.Time, error) {
	ref, ok := m.in.Lookup(tenantID)
	if !ok {
		return 0, fmt.Errorf("mppdb %s: tenant %q not deployed", m.id, tenantID)
	}
	return m.submit(ref, class, done, 0, false, false)
}

// SubmitTagged is the pooled hot path: the query is identified by its
// interned ref, and completion reports through the instance-level handler
// (SetCompletionHandler) with tag — no per-call closure is allocated.
func (m *Instance) SubmitTagged(ref tenant.Ref, class *queries.Class, tag uint64) (sim.Time, error) {
	return m.submit(ref, class, nil, tag, true, false)
}

// SubmitHedge starts a hedged duplicate of a query already running on a
// sibling instance. It behaves like SubmitTagged except that the
// service-demand histogram is not observed — the logical query was already
// counted at its primary submit, and hedges must never double-count.
func (m *Instance) SubmitHedge(ref tenant.Ref, class *queries.Class, tag uint64) (sim.Time, error) {
	return m.submit(ref, class, nil, tag, true, true)
}

// CancelTagged withdraws an in-flight tagged query without completing it:
// no completion handler fires and no sojourn/completed telemetry is
// observed (the hedge winner accounts for the logical query). It reports
// whether a matching query was found.
func (m *Instance) CancelTagged(tag uint64) bool {
	if m.sharing {
		return m.cancelShared(tag)
	}
	m.advance()
	var ex *exec
	for _, cand := range m.execs {
		if cand.tagged && cand.tag == tag {
			ex = cand
			break
		}
	}
	if ex == nil {
		return false
	}
	i := ex.idx
	last := len(m.execs) - 1
	m.execs[i] = m.execs[last]
	m.execs[i].idx = i
	m.execs[last] = nil
	m.execs = m.execs[:last]
	ex.idx = -1
	m.weightSum--
	m.running[ex.ref]--
	if m.tel != nil {
		m.mRunning.Set(float64(len(m.execs)))
	}
	m.reschedule()
	m.releaseExec(ex)
	return true
}

// cancelShared withdraws one tagged logical query under shared-work
// execution. A member of a live multi-member batch is detached without
// refunding the batch's service demand — the shared scan is already paying
// that member's σ share and re-deriving a smaller demand mid-flight would
// advantage exactly the executions a hedge raced, so the cost stays sunk. A
// batch's sole member cancels the whole batch.
func (m *Instance) cancelShared(tag uint64) bool {
	var ex *exec
	mi := -1
	for _, cand := range m.execs {
		for i := range cand.members {
			if cand.members[i].tagged && cand.members[i].tag == tag {
				ex, mi = cand, i
				break
			}
		}
		if ex != nil {
			break
		}
	}
	if ex == nil {
		return false
	}
	m.resident--
	m.running[ex.members[mi].ref]--
	if len(ex.members) > 1 {
		// Settle progress at the old rates first: the batch loses the
		// detached member's scheduler share along with its claim on the
		// results, even though its demand stays sunk.
		m.advance()
		ex.members = append(ex.members[:mi], ex.members[mi+1:]...)
		m.weightSum--
		if m.tel != nil {
			m.mRunning.Set(float64(m.resident))
		}
		m.reschedule()
		return true
	}
	// Sole member: withdraw the whole batch from processor sharing.
	m.advance()
	key := liveKey{ref: ex.ref, class: ex.class}
	ex.members = nil
	i := ex.idx
	last := len(m.execs) - 1
	m.execs[i] = m.execs[last]
	m.execs[i].idx = i
	m.execs[last] = nil
	m.execs = m.execs[:last]
	ex.idx = -1
	m.weightSum--
	delete(m.live, key)
	if m.tel != nil {
		m.mRunning.Set(float64(m.resident))
	}
	m.reschedule()
	m.releaseExec(ex)
	return true
}

func (m *Instance) submit(ref tenant.Ref, class *queries.Class, done func(Result), tag uint64, tagged, hedge bool) (sim.Time, error) {
	if m.state != Ready {
		return 0, fmt.Errorf("mppdb %s: not ready (%v)", m.id, m.state)
	}
	iso, err := m.IsolatedLatencyRef(ref, class)
	if err != nil {
		return 0, err
	}
	now := m.eng.Now()
	if m.sharing {
		return m.submitShared(ref, class, iso, done, tag, tagged, hedge, now)
	}
	m.nextExecID++
	ex := m.acquireExec()
	ex.id = m.nextExecID
	ex.ref = ref
	ex.class = class
	ex.submit = now
	ex.isolated = iso
	ex.remaining = iso.Seconds()
	ex.tag = tag
	ex.tagged = tagged
	ex.done = done
	// One fused pass over the in-flight set does the work of advance(), the
	// max-concurrency update, and reschedule()'s min-selection — same
	// arithmetic and same unique (remaining, id) minimum, one O(n) scan
	// instead of three. The submit path dominates the service hot loop, and
	// these scans dominate the submit path.
	// dec is elapsed*(speed/k), associated exactly as advance() computes it
	// so the fused path is bit-identical to the unfused one.
	// The plain path runs only with sharing off, where every weight is 1 and
	// weightSum == len(execs): the unweighted scan below is exact.
	dec := 0.0
	if now > m.lastTouch && len(m.execs) > 0 {
		dec = (now - m.lastTouch).Seconds() * (m.speed() / float64(len(m.execs)))
	}
	m.lastTouch = now
	conc := len(m.execs) + 1
	ex.maxConc = conc
	next := ex
	for _, other := range m.execs {
		if dec > 0 {
			other.remaining -= dec
			if other.remaining < 0 {
				other.remaining = 0
			}
		}
		if conc > other.maxConc {
			other.maxConc = conc
		}
		if other.remaining < next.remaining ||
			(other.remaining == next.remaining && other.id < next.id) {
			next = other
		}
	}
	ex.idx = len(m.execs)
	m.execs = append(m.execs, ex)
	m.weightSum++
	m.running[ref]++
	if m.tel != nil {
		// Hedged duplicates skip the service-demand histogram: the logical
		// query was already observed at its primary submit.
		if !hedge {
			m.mService.Observe(iso.Seconds())
		}
		m.mRunning.Set(float64(len(m.execs)))
	}
	if m.completion != nil {
		m.eng.CancelOwned(m.completion)
		m.completion = nil
	}
	eta := next.remaining * float64(len(m.execs)) / m.speed()
	m.nextDone = next
	m.completion = m.eng.ScheduleOwned(now+sim.Time(eta*float64(sim.Second)), m.completeCb)
	return iso, nil
}

// submitShared is the shared-work submit path: the query either starts a new
// batch for its class (entering processor sharing) or attaches to the
// class's in-flight batch, growing its remaining demand by exactly the
// joiner's marginal shared cost.
func (m *Instance) submitShared(ref tenant.Ref, class *queries.Class, iso sim.Time, done func(Result), tag uint64, tagged, hedge bool, now sim.Time) (sim.Time, error) {
	m.resident++
	m.running[ref]++
	mem := batchMember{
		ref: ref, submit: now, iso: iso, maxRes: m.resident,
		tag: tag, tagged: tagged, done: done,
	}
	m.bumpResidency()
	if m.tel != nil {
		// Hedged duplicates skip the service-demand histogram (see
		// SubmitHedge); under sharing mRunning reports logical residency.
		if !hedge {
			m.mService.Observe(iso.Seconds())
		}
		m.mRunning.Set(float64(m.resident))
	}
	if ex, liveNow := m.live[liveKey{ref: ref, class: class}]; liveNow {
		m.attach(ex, mem, now)
		return iso, nil
	}
	m.startBatch(class, mem, now)
	return iso, nil
}

// attach merges a late joiner into its class's in-flight batch. The batch's
// progress is settled first (advance), then its remaining demand grows by
// the joiner's marginal shared cost — the increase of the SharedDemand
// aggregate maxIso + σ·(ΣIso − maxIso), i.e. σ·iso for a same-width joiner —
// and the batch gains one scheduler share. To the rest of the instance an
// attachment is therefore indistinguishable from the joiner entering
// processor sharing on its own (same weight added), while the batch's total
// demand grows by σ·iso instead of iso: every member, and every bystander,
// finishes no later than it would have unmerged. The joiner finishes when
// the batch does; the prefix of the scan it missed is absorbed in the σ
// share (circular-scan wrap-around).
func (m *Instance) attach(ex *exec, mem batchMember, now sim.Time) {
	m.advance()
	s := mem.iso.Seconds()
	old := ex.class.SharedDemand(ex.maxIso, ex.sumIso)
	ex.sumIso += s
	if s > ex.maxIso {
		ex.maxIso = s
	}
	grown := ex.class.SharedDemand(ex.maxIso, ex.sumIso)
	ex.remaining += grown - old
	ex.isolated = sim.Time(grown * float64(sim.Second))
	ex.members = append(ex.members, mem)
	m.weightSum++
	if len(ex.members) == 2 {
		m.sharedBatches++
		if m.mSharedBatches != nil {
			m.mSharedBatches.Inc()
		}
	}
	m.sharedJoins++
	if m.mSharedJoins != nil {
		m.mSharedJoins.Inc()
	}
	m.reschedule()
}

// bumpResidency raises every in-flight member's residency peak to the
// current resident count. Only called under sharing; the plain path keeps
// its fused submit scan.
func (m *Instance) bumpResidency() {
	r := m.resident
	for _, ex := range m.execs {
		for i := range ex.members {
			if r > ex.members[i].maxRes {
				ex.members[i].maxRes = r
			}
		}
	}
}

// startBatch enters a new shared batch into processor sharing for its first
// member (weight 1 — one share per member) and registers it as the class's
// live batch. The batch's service demand starts as the member's isolated
// latency and grows by marginal SharedDemand shares as joiners attach — the
// widest member's scan paid once, every further member only its
// non-shareable σ share; the exec's recorded isolated latency is the
// current demand, since it is what the batch would take on an otherwise
// idle instance.
func (m *Instance) startBatch(class *queries.Class, mem batchMember, now sim.Time) {
	iso := mem.iso.Seconds()
	m.nextExecID++
	ex := m.acquireExec()
	ex.id = m.nextExecID
	ex.ref = mem.ref
	ex.class = class
	ex.submit = now
	ex.isolated = mem.iso
	ex.remaining = iso
	ex.tag = 0
	ex.tagged = false
	ex.done = nil
	ex.members = append(ex.members[:0], mem)
	ex.maxIso = iso
	ex.sumIso = iso
	// Weighted variant of the plain submit's fused scan: co-resident batches
	// may weigh more than 1, so each exec's decrement and the min-selection
	// are scaled by its weight.
	dec := 0.0
	if now > m.lastTouch && len(m.execs) > 0 {
		dec = (now - m.lastTouch).Seconds() * (m.speed() / float64(m.weightSum))
	}
	m.lastTouch = now
	conc := len(m.execs) + 1
	ex.maxConc = conc
	next := ex
	nw := 1.0
	for _, other := range m.execs {
		ow := float64(execWeight(other))
		if dec > 0 {
			other.remaining -= dec * ow
			if other.remaining < 0 {
				other.remaining = 0
			}
		}
		if conc > other.maxConc {
			other.maxConc = conc
		}
		if other.remaining*nw < next.remaining*ow ||
			(other.remaining*nw == next.remaining*ow && other.id < next.id) {
			next, nw = other, ow
		}
	}
	ex.idx = len(m.execs)
	m.execs = append(m.execs, ex)
	m.weightSum++
	if m.completion != nil {
		m.eng.CancelOwned(m.completion)
		m.completion = nil
	}
	eta := next.remaining * float64(m.weightSum) / (m.speed() * nw)
	m.nextDone = next
	m.completion = m.eng.ScheduleOwned(now+sim.Time(eta*float64(sim.Second)), m.completeCb)
	m.live[liveKey{ref: mem.ref, class: class}] = ex
}

// acquireExec pops a recycled exec or allocates one.
func (m *Instance) acquireExec() *exec {
	n := len(m.freeExecs)
	if n == 0 {
		return &exec{}
	}
	ex := m.freeExecs[n-1]
	m.freeExecs[n-1] = nil
	m.freeExecs = m.freeExecs[:n-1]
	return ex
}

// releaseExec returns a finished exec to the freelist.
func (m *Instance) releaseExec(ex *exec) {
	ex.class = nil
	ex.done = nil
	ex.members = nil
	m.freeExecs = append(m.freeExecs, ex)
}

// advance applies elapsed virtual time to all in-flight queries under
// weighted processor sharing: an exec of weight w progresses at
// speed()·w/W where W is the live set's total weight. With sharing off
// every weight is 1, W == k, and the arithmetic (·1.0 is IEEE-exact) is
// bit-identical to the unweighted rate speed()/k.
func (m *Instance) advance() {
	now := m.eng.Now()
	if now <= m.lastTouch {
		m.lastTouch = now
		return
	}
	elapsed := (now - m.lastTouch).Seconds()
	m.lastTouch = now
	if len(m.execs) == 0 {
		return
	}
	rate := m.speed() / float64(m.weightSum)
	for _, ex := range m.execs {
		ex.remaining -= elapsed * rate * float64(execWeight(ex))
		if ex.remaining < 0 {
			ex.remaining = 0
		}
	}
}

// reschedule (re)computes the next completion event: the exec minimising
// remaining/weight (compared cross-multiplied, exact for weight 1, id
// tie-break). The selection is iteration-order independent, so the
// swap-remove slice cannot perturb a deterministic run.
func (m *Instance) reschedule() {
	if m.completion != nil {
		m.eng.CancelOwned(m.completion)
		m.completion = nil
	}
	if len(m.execs) == 0 {
		m.nextDone = nil
		return
	}
	next := m.execs[0]
	nw := float64(execWeight(next))
	for _, ex := range m.execs[1:] {
		w := float64(execWeight(ex))
		if ex.remaining*nw < next.remaining*w ||
			(ex.remaining*nw == next.remaining*w && ex.id < next.id) {
			next, nw = ex, w
		}
	}
	eta := next.remaining * float64(m.weightSum) / (m.speed() * nw)
	at := m.eng.Now() + sim.Time(eta*float64(sim.Second))
	m.nextDone = next
	m.completion = m.eng.ScheduleOwned(at, m.completeCb)
}

// complete finishes the targeted query and reschedules.
func (m *Instance) complete(ex *exec) {
	if ex == nil || ex.idx < 0 || ex.idx >= len(m.execs) || m.execs[ex.idx] != ex {
		m.advance()
		m.reschedule()
		return
	}
	// Fused advance + next-completion selection, mirroring submit: one scan
	// decrements every in-flight query by its weighted share and picks the
	// min-(remaining/weight, id) among the survivors.
	now := m.eng.Now()
	dec := 0.0
	if now > m.lastTouch {
		dec = (now - m.lastTouch).Seconds() * (m.speed() / float64(m.weightSum))
	}
	m.lastTouch = now
	var next *exec
	nw := 1.0
	for _, other := range m.execs {
		if dec > 0 {
			other.remaining -= dec * float64(execWeight(other))
			if other.remaining < 0 {
				other.remaining = 0
			}
		}
		if other == ex {
			continue
		}
		ow := float64(execWeight(other))
		if next == nil || other.remaining*nw < next.remaining*ow ||
			(other.remaining*nw == next.remaining*ow && other.id < next.id) {
			next, nw = other, ow
		}
	}
	// Guard against float drift: the scheduled completion is authoritative.
	ex.remaining = 0
	i := ex.idx
	last := len(m.execs) - 1
	m.execs[i] = m.execs[last]
	m.execs[i].idx = i
	m.execs[last] = nil
	m.execs = m.execs[:last]
	ex.idx = -1
	m.weightSum -= execWeight(ex)
	if ex.members != nil {
		for j := range ex.members {
			m.running[ex.members[j].ref]--
		}
		m.resident -= len(ex.members)
		if m.tel != nil {
			for j := range ex.members {
				m.mSojourn.Observe((now - ex.members[j].submit).Seconds())
			}
			m.mRunning.Set(float64(m.resident))
			m.mCompleted.Add(int64(len(ex.members)))
		}
	} else {
		m.running[ex.ref]--
		if m.tel != nil {
			m.mSojourn.Observe((now - ex.submit).Seconds())
			m.mRunning.Set(float64(len(m.execs)))
			m.mCompleted.Inc()
		}
	}
	if m.completion != nil {
		m.eng.CancelOwned(m.completion)
		m.completion = nil
	}
	if next == nil {
		m.nextDone = nil
	} else {
		eta := next.remaining * float64(m.weightSum) / (m.speed() * nw)
		m.nextDone = next
		m.completion = m.eng.ScheduleOwned(now+sim.Time(eta*float64(sim.Second)), m.completeCb)
	}
	if ex.members != nil {
		m.finishBatch(ex, now)
	} else if ex.done != nil {
		ex.done(Result{
			Tenant:               m.in.ID(ex.ref),
			Class:                ex.class,
			Submit:               ex.submit,
			Finish:               m.eng.Now(),
			Isolated:             ex.isolated,
			MaxConcurrency:       ex.maxConc,
			EffectiveConcurrency: ex.maxConc,
		})
	} else if ex.tagged && m.onDone != nil {
		m.onDone(Result{
			Tenant:               m.in.ID(ex.ref),
			Class:                ex.class,
			Submit:               ex.submit,
			Finish:               m.eng.Now(),
			Isolated:             ex.isolated,
			MaxConcurrency:       ex.maxConc,
			EffectiveConcurrency: ex.maxConc,
		}, ex.tag)
	}
	m.releaseExec(ex)
}

// finishBatch retires a completed shared batch: the class's live slot is
// cleared *before* member completions fire, so a completion callback that
// immediately resubmits the class starts a fresh batch rather than attaching
// to a finished scan. Every member reports its own submit time and isolated
// latency; MaxConcurrency is the member's residency peak and
// EffectiveConcurrency the batch's processor-sharing peak.
func (m *Instance) finishBatch(ex *exec, now sim.Time) {
	class := ex.class
	members := ex.members
	ex.members = nil
	delete(m.live, liveKey{ref: ex.ref, class: class})
	for i := range members {
		mem := &members[i]
		res := Result{
			Tenant:               m.in.ID(mem.ref),
			Class:                class,
			Submit:               mem.submit,
			Finish:               now,
			Isolated:             mem.iso,
			MaxConcurrency:       mem.maxRes,
			EffectiveConcurrency: ex.maxConc,
		}
		if mem.done != nil {
			mem.done(res)
		} else if mem.tagged && m.onDone != nil {
			m.onDone(res, mem.tag)
		}
	}
}
