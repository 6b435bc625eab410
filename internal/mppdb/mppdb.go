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
//     sequential submissions are unaffected (xT-SEQ).
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
	idx       int     // position in Instance.execs; -1 once finished
	// tag correlates the pooled completion path (SubmitTagged /
	// SetCompletionHandler); done is the legacy per-call closure and is nil
	// on the tagged path.
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
	// on completion: every consumer of the slice — advance, reschedule — is
	// iteration-order independent).
	execs      []*exec
	freeExecs  []*exec
	nextExecID int64
	lastTouch  sim.Time

	// completion is the instance's one predicted-completion event, re-keyed
	// by every submit, reschedule and completion for the instance's life;
	// nextDone is the exec it targets and completeCb its one callback.
	completion sim.Event
	nextDone   *exec
	completeCb func(sim.Time)

	// onDone receives completions of SubmitTagged queries with their tag.
	onDone func(Result, uint64)

	failedNodes int
	gate        *sim.Gate // FailNode's guard (SetGate)
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
	m.completeCb = func(sim.Time) { m.complete(m.nextDone) }
	return m
}

// Interner returns the interner keying this instance's per-tenant state.
func (m *Instance) Interner() *tenant.Interner { return m.in }

// SetGate guards FailNode with the deployment's gate: a failed node's
// detection is a shared event, which a plain event in a window may not start.
func (m *Instance) SetGate(g *sim.Gate) { m.gate = g }

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
}

// SetCompletionHandler installs the pooled completion path: queries started
// with SubmitTagged report here with their submit-time tag instead of
// through a per-call closure.
func (m *Instance) SetCompletionHandler(fn func(Result, uint64)) { m.onDone = fn }

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
// bulk-load *timing* is applied by the group's cluster.Lifecycle (its
// Ready, for the Deployment Master and the elastic scaler); Deploy itself is
// bookkeeping.
func (m *Instance) DeployTenant(tenantID string, dataGB float64) {
	m.DeployTenantRef(m.in.Intern(tenantID), dataGB)
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
// an MPPDB is free when it is not serving any queries).
func (m *Instance) Busy() bool { return len(m.execs) > 0 }

// Running returns the number of in-flight queries.
func (m *Instance) Running() int { return len(m.execs) }

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
// proportionally until RepairNode is called. Inside a window of the
// instance's gate (SetGate) it panics.
func (m *Instance) FailNode() error {
	m.gate.Guard("an instance's failed nodes")
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
	return m.submit(ref, class, done, 0, false)
}

// SubmitTagged is the pooled hot path: the query is identified by its
// interned ref, and completion reports through the instance-level handler
// (SetCompletionHandler) with tag — no per-call closure is allocated.
func (m *Instance) SubmitTagged(ref tenant.Ref, class *queries.Class, tag uint64) (sim.Time, error) {
	return m.submit(ref, class, nil, tag, true)
}

func (m *Instance) submit(ref tenant.Ref, class *queries.Class, done func(Result), tag uint64, tagged bool) (sim.Time, error) {
	if m.state != Ready {
		return 0, fmt.Errorf("mppdb %s: not ready (%v)", m.id, m.state)
	}
	iso, err := m.IsolatedLatencyRef(ref, class)
	if err != nil {
		return 0, err
	}
	now := m.eng.Now()
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
	// One fused pass over the in-flight set does the work of advance() and
	// reschedule()'s min-selection — same arithmetic and same unique
	// (remaining, id) minimum, one O(n) scan instead of two. The submit path
	// dominates the service hot loop, and these scans dominate the submit
	// path.
	// dec is elapsed*(speed/k), associated exactly as advance() computes it
	// so the fused path is bit-identical to the unfused one.
	dec := 0.0
	if now > m.lastTouch && len(m.execs) > 0 {
		dec = (now - m.lastTouch).Seconds() * (m.speed() / float64(len(m.execs)))
	}
	m.lastTouch = now
	next := ex
	for _, other := range m.execs {
		if dec > 0 {
			other.remaining -= dec
			if other.remaining < 0 {
				other.remaining = 0
			}
		}
		if other.remaining < next.remaining ||
			(other.remaining == next.remaining && other.id < next.id) {
			next = other
		}
	}
	ex.idx = len(m.execs)
	m.execs = append(m.execs, ex)
	m.running[ref]++
	if m.tel != nil {
		m.mService.Observe(iso.Seconds())
		m.mRunning.Set(float64(len(m.execs)))
	}
	eta := next.remaining * float64(len(m.execs)) / m.speed()
	m.nextDone = next
	m.eng.Reschedule(&m.completion, now+sim.Time(eta*float64(sim.Second)), m.completeCb)
	return iso, nil
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
	m.freeExecs = append(m.freeExecs, ex)
}

// advance applies elapsed virtual time to all in-flight queries under
// processor sharing: each of the k queries progresses at speed()/k.
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
	rate := m.speed() / float64(len(m.execs))
	for _, ex := range m.execs {
		ex.remaining -= elapsed * rate
		if ex.remaining < 0 {
			ex.remaining = 0
		}
	}
}

// reschedule (re)computes the next completion event: the exec with the least
// remaining work (id tie-break). The selection is iteration-order
// independent, so the swap-remove slice cannot perturb a deterministic run.
func (m *Instance) reschedule() {
	if len(m.execs) == 0 {
		m.eng.Cancel(&m.completion)
		m.nextDone = nil
		return
	}
	next := m.execs[0]
	for _, ex := range m.execs[1:] {
		if ex.remaining < next.remaining ||
			(ex.remaining == next.remaining && ex.id < next.id) {
			next = ex
		}
	}
	eta := next.remaining * float64(len(m.execs)) / m.speed()
	at := m.eng.Now() + sim.Time(eta*float64(sim.Second))
	m.nextDone = next
	m.eng.Reschedule(&m.completion, at, m.completeCb)
}

// complete finishes the targeted query and reschedules.
func (m *Instance) complete(ex *exec) {
	if ex == nil || ex.idx < 0 || ex.idx >= len(m.execs) || m.execs[ex.idx] != ex {
		m.advance()
		m.reschedule()
		return
	}
	// Fused advance + next-completion selection, mirroring submit: one scan
	// decrements every in-flight query by its share and picks the
	// min-(remaining, id) among the survivors.
	now := m.eng.Now()
	dec := 0.0
	if now > m.lastTouch {
		dec = (now - m.lastTouch).Seconds() * (m.speed() / float64(len(m.execs)))
	}
	m.lastTouch = now
	var next *exec
	for _, other := range m.execs {
		if dec > 0 {
			other.remaining -= dec
			if other.remaining < 0 {
				other.remaining = 0
			}
		}
		if other == ex {
			continue
		}
		if next == nil || other.remaining < next.remaining ||
			(other.remaining == next.remaining && other.id < next.id) {
			next = other
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
	m.running[ex.ref]--
	if m.tel != nil {
		m.mSojourn.Observe((now - ex.submit).Seconds())
		m.mRunning.Set(float64(len(m.execs)))
		m.mCompleted.Inc()
	}
	if next == nil {
		m.eng.Cancel(&m.completion)
		m.nextDone = nil
	} else {
		eta := next.remaining * float64(len(m.execs)) / m.speed()
		m.nextDone = next
		m.eng.Reschedule(&m.completion, now+sim.Time(eta*float64(sim.Second)), m.completeCb)
	}
	if ex.done != nil || (ex.tagged && m.onDone != nil) {
		res := Result{
			Tenant:   m.in.ID(ex.ref),
			Class:    ex.class,
			Submit:   ex.submit,
			Finish:   now,
			Isolated: ex.isolated,
		}
		if ex.done != nil {
			ex.done(res)
		} else {
			m.onDone(res, ex.tag)
		}
	}
	m.releaseExec(ex)
}
