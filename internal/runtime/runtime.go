// Package runtime bundles one deployed tenant-group's execution state — its
// MPPDB instances, query router, activity monitor, and member tenants —
// behind a clock domain, and composes the groups into a Plane, the runtime
// half of a deployment.
//
// The paper's architecture (§3–§5) makes tenant-groups independent units of
// execution: each group has its own MPPDBs, router, monitor, and scaling
// loop, and nothing crosses group boundaries at query time. GroupRuntime is
// that unit made explicit: every group owns a private sim.Engine wrapped in a
// sim.Domain, so submits against different groups proceed fully in parallel,
// and replay drives all of them in one deterministic order
// (sim.Domains.Drive) for bit-identical experiments (Figs 7.1–7.7).
package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/router"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// TenantRef is a dense, group-local tenant handle (see package tenant):
// resolved once at the front door, it replaces per-submit string-map lookups
// in the router, instances, and admission controller.
type TenantRef = tenant.Ref

// NoTenantRef marks an unresolved handle.
const NoTenantRef = tenant.NoRef

// GroupRuntime is one tenant-group brought up on the cluster. The exported
// fields are the group's subsystems; they are safe to touch directly only
// from the single driver of every domain (the experiment/replay path) or
// from inside the group's clock domain. Concurrent callers — the HTTP service —
// must go through the locked methods below.
type GroupRuntime struct {
	Plan      advisor.PlannedGroup
	Instances []*mppdb.Instance // index 0 is the tuning MPPDB G₀
	Router    *router.GroupRouter
	Monitor   *monitor.GroupMonitor
	Members   []*tenant.Tenant
	// Lifecycle acquires, prices and re-images the group's nodes (Table
	// 5.1) for every subsystem that changes them. It lives on the group's
	// engine.
	Lifecycle *cluster.Lifecycle
	// Recovery, when non-nil, is the group's autonomous failure-recovery
	// controller (§4.4); the Deployment Master arms one in every group. It
	// lives on the group's engine.
	Recovery *recovery.Controller
	// Admission, when non-nil, is the group's overload-protection
	// controller: per-tenant contract buckets and the brownout loop. It
	// lives on the group's engine and SubmitBatchAt consults it once per
	// item, at the item's first attempt.
	Admission *admission.Controller
	// Scaler, when non-nil, is the group's §5.1 scaler (Options.Scaling).
	Scaler *scaling.Scaler

	dom *sim.Domain

	// sheddingOnly is set by the brownout controller at its top level:
	// stats readers then serve the cached snapshot instead of advancing or
	// locking the overloaded group's domain.
	sheddingOnly atomic.Bool
	// cache is that snapshot, refreshed in place by CacheStats and copied out
	// by readers under cacheMu; cached is false until an episode's first
	// refresh.
	cacheMu sync.Mutex
	cache   Stats
	cached  bool

	// The group's telemetry view and its submit-path retry/timeout
	// instrumentation.
	tel      *telemetry.Hub
	mRetried *telemetry.Counter
	mTimeout *telemetry.Counter
	hRetries *telemetry.Histogram
}

// Bind attaches the group's clock domain and its telemetry view, on which it
// registers the submit path's retry instrumentation. The Deployment Master
// calls it once, right after constructing the group's router on the domain's
// engine.
func (g *GroupRuntime) Bind(dom *sim.Domain, tel *telemetry.Hub) {
	g.dom, g.tel = dom, tel
	g.mRetried = tel.Registry.Counter("thrifty_query_retried_total", "group", g.Plan.ID)
	g.mTimeout = tel.Registry.Counter("thrifty_query_timeout_total", "group", g.Plan.ID)
	g.hRetries = tel.Registry.Histogram("thrifty_query_retries",
		[]float64{0, 1, 2, 3, 5, 8}, "group", g.Plan.ID)
}

// Telemetry returns the hub Bind attached: the group's view.
func (g *GroupRuntime) Telemetry() *telemetry.Hub { return g.tel }

// Domain returns the group's clock domain.
func (g *GroupRuntime) Domain() *sim.Domain { return g.dom }

// Now returns the group's virtual time without blocking.
func (g *GroupRuntime) Now() sim.Time { return g.dom.Now() }

// RetryPolicy shapes SubmitBatchAt: how often a transiently failed submit
// is re-tried against the group's replica set, and when to give up.
type RetryPolicy struct {
	// MaxRetries bounds the re-tries after the first attempt.
	MaxRetries int
	// Backoff is the virtual-time wait between attempts (default 15 s).
	Backoff time.Duration
	// Timeout is the total virtual-time budget from the submit instant;
	// 0 means no deadline beyond MaxRetries.
	Timeout time.Duration
}

// DefaultRetryPolicy is the service front end's policy: three retries 30 s
// apart within a 5-minute budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 30 * time.Second, Timeout: 5 * time.Minute}
}

// TimeoutError is returned when a submit exhausted its retry policy — the
// typed alternative to hanging the caller on a group that cannot currently
// place the query (e.g. every replica mid-recovery).
type TimeoutError struct {
	Group   string
	Tenant  string
	Timeout time.Duration
	// Attempts is the total number of submit attempts made.
	Attempts int
	// Last is the final attempt's routing error.
	Last error
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("runtime: query for tenant %s in group %s timed out after %d attempts (budget %v): %v",
		e.Tenant, e.Group, e.Attempts, e.Timeout, e.Last)
}

// Unwrap exposes the final routing error.
func (e *TimeoutError) Unwrap() error { return e.Last }

// BatchItem is one query of a batched submit.
type BatchItem struct {
	// Tenant is the tenant's string ID (used for resolution when HasRef is
	// unset, and for error reporting).
	Tenant string
	// Ref carries the tenant's group-local ref pre-resolved at the front
	// door (Plane.ForTenantRef); only consulted when HasRef is true, so the
	// zero value stays safe (ref 0 is a valid tenant).
	Ref    tenant.Ref
	HasRef bool
	Class  *queries.Class
	// SLA is the per-query latency target; non-positive falls back to the
	// tenant's isolated latency.
	SLA sim.Time
	// BestEffort marks traffic the brownout controller may shed wholesale.
	BestEffort bool
}

// BatchOutcome is one item's result: the chosen MPPDB and retries used on
// success, or the typed error (*admission.ContractExceededError or
// *admission.ShedError at the first attempt, *TimeoutError once the retries
// are spent, or a permanent routing error). Outcomes are strictly per item —
// one item's failure never affects its batch-mates.
type BatchOutcome struct {
	DB      string
	Retries int
	Err     error
}

// SubmitBatchAt advances the group to at once and routes all items through
// the group's router (TDD Algorithm 1) inside a single engine callback — one
// domain lock and one Advance per batch (plus one per backoff round while
// any item retries), instead of one per query. Results land in outs (which
// must be at least as long as items); item i's outcome is outs[i]: the
// chosen MPPDB's ID and the number of retries used, or a typed error. A
// single submit is a one-item batch. An item whose tenant is not a member
// of the group fails at once, before admission.
//
// The caller is shielded from transient routing failures: when the router
// cannot place an item (every replica of the set R busy recovering or not
// Ready), the item is re-tried at the policy's virtual-time backoff — the
// domain is released between rounds, so other callers and the group's own
// recovery keep progressing. Once the policy is exhausted the item fails
// with a *TimeoutError. A non-positive SLA falls back to the tenant's
// isolated latency.
//
// With an admission controller armed, an item's first attempt must pass the
// tenant's contract bucket and the brownout policy — a typed
// *admission.ContractExceededError (429) or *admission.ShedError (503) is
// its outcome at once, before any routing work. Retries do not consult
// admission again: an item the router cannot place retries and times out
// (504) however many batch-mates wait with it. BestEffort marks traffic the
// brownout controller may drop wholesale at its top level.
//
// Items are processed in slice order, so a batch at time t is
// operation-for-operation equivalent to submitting its items one at a time
// at t — same-seed telemetry is byte-identical (the determinism guard pins
// this). Retry rounds run round-major: every live item attempts once per
// round before the clock moves again.
func (g *GroupRuntime) SubmitBatchAt(at sim.Time, items []BatchItem, outs []BatchOutcome, pol RetryPolicy) {
	n := len(items)
	if n == 0 {
		return
	}
	if len(outs) < n {
		panic("runtime: SubmitBatchAt outs shorter than items")
	}
	if pol.Backoff <= 0 {
		pol.Backoff = 15 * time.Second
	}
	deadline := sim.MaxTime
	if pol.Timeout > 0 {
		deadline = at + sim.Duration(pol.Timeout)
	}
	adm := g.Admission
	for i := range outs[:n] {
		outs[i] = BatchOutcome{}
	}
	// live holds the indices of items still in flight across rounds; it
	// stays nil, and allocates nothing, unless an item retries.
	var live []int

	// attempt runs one routing attempt for item i at round `retries` and
	// reports whether the item stays live. In-domain only.
	attempt := func(i, retries int, t sim.Time) bool {
		it := &items[i]
		ref := it.Ref
		if !it.HasRef {
			ref = g.Router.Ref(it.Tenant)
		}
		if ref == tenant.NoRef {
			outs[i].Err = fmt.Errorf("runtime: unknown tenant %s in group %s", it.Tenant, g.Plan.ID)
			return false
		}
		if adm != nil && retries == 0 {
			if err := adm.AdmitRef(ref, it.BestEffort); err != nil {
				outs[i].Err = err
				return false
			}
		}
		db, err := g.Router.SubmitRef(ref, it.Class, it.SLA)
		if err == nil {
			outs[i].DB = db
			outs[i].Retries = retries
			g.hRetries.Observe(float64(retries))
			return false
		}
		if !g.Router.HasTenant(it.Tenant) {
			// Permanent: this group will never accept the tenant.
			outs[i].Retries = retries
			outs[i].Err = err
			return false
		}
		if retries < pol.MaxRetries && t+sim.Duration(pol.Backoff) <= deadline {
			g.mRetried.Inc()
			g.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventQueryRetried,
				Group:  g.Plan.ID,
				Tenant: it.Tenant,
				Value:  float64(retries + 1),
				Detail: err.Error(),
			})
			return true
		}
		g.mTimeout.Inc()
		g.hRetries.Observe(float64(retries))
		g.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventQueryTimeout,
			Group:  g.Plan.ID,
			Tenant: it.Tenant,
			Value:  float64(retries),
			Detail: err.Error(),
		})
		outs[i].Retries = retries
		outs[i].Err = &TimeoutError{
			Group:    g.Plan.ID,
			Tenant:   it.Tenant,
			Timeout:  pol.Timeout,
			Attempts: retries + 1,
			Last:     err,
		}
		return false
	}

	t := at
	for retries := 0; ; retries++ {
		r := retries
		now := t
		g.dom.Advance(now, func(*sim.Engine) {
			if r == 0 {
				for i := 0; i < n; i++ {
					if attempt(i, 0, now) {
						live = append(live, i)
					}
				}
				return
			}
			keep := live[:0]
			for _, i := range live {
				if attempt(i, r, now) {
					keep = append(keep, i)
				}
			}
			live = keep
		})
		if len(live) == 0 {
			return
		}
		t += sim.Duration(pol.Backoff)
	}
}

// Stats is a point-in-time snapshot of a group's run-time state, safe to
// read outside the group's clock domain.
type Stats struct {
	Group         string
	Members       int
	ActiveTenants int
	RTTTP         float64
	SLAAttainment float64
	Routed        int64
	Overflowed    int64
	Instances     []mppdb.Snapshot
}

// snapshot fills st, reusing its Instances slice; the caller must hold the
// group's domain.
func (g *GroupRuntime) snapshot(st *Stats) {
	*st = Stats{
		Group:         g.Plan.ID,
		Members:       len(g.Members),
		ActiveTenants: g.Monitor.ActiveTenants(),
		RTTTP:         g.Monitor.RTTTP(),
		SLAAttainment: g.Monitor.SLAAttainment(),
		Routed:        g.Router.Routed(),
		Overflowed:    g.Router.Overflowed(),
		Instances:     st.Instances[:0],
	}
	for _, inst := range g.Instances {
		st.Instances = append(st.Instances, inst.Snapshot())
	}
}

// CacheStats refreshes the snapshot shedding-only readers are served; the
// caller must hold the group's domain. The admission controller's brownout
// tick calls it, after any level change, so they see stats no staler than
// one tick. It does nothing while the group is not shedding-only, the only
// time the snapshot is read, and refreshes it in place: readers take copies.
func (g *GroupRuntime) CacheStats() {
	if g.sheddingOnly.Load() {
		g.cacheMu.Lock()
		g.snapshot(&g.cache)
		g.cached = true
		g.cacheMu.Unlock()
	}
}

// SetSheddingOnly marks the group shedding-only: stats readers serve the
// cached snapshot instead of advancing or locking the group's domain, so
// read endpoints stay fast while the group digs out of overload. The
// brownout controller toggles it at its top level; clearing it retires the
// snapshot, so the next episode never serves the last one's.
func (g *GroupRuntime) SetSheddingOnly(v bool) {
	g.sheddingOnly.Store(v)
	g.cacheMu.Lock()
	g.cached = g.cached && v
	g.cacheMu.Unlock()
}

// SheddingOnly reports whether the group is marked shedding-only.
func (g *GroupRuntime) SheddingOnly() bool { return g.sheddingOnly.Load() }

// StatsAt advances the group to at (a time at or before its clock advances
// nothing) and snapshots it. A shedding-only group returns a copy of its
// cached snapshot without advancing or locking the domain.
func (g *GroupRuntime) StatsAt(at sim.Time) Stats {
	if g.sheddingOnly.Load() {
		g.cacheMu.Lock()
		st, ok := g.cache, g.cached
		st.Instances = slices.Clone(st.Instances)
		g.cacheMu.Unlock()
		if ok {
			return st
		}
	}
	var st Stats
	g.dom.Advance(at, func(*sim.Engine) { g.snapshot(&st) })
	return st
}

// AppendRecordsAt advances the group to at and appends its completed query
// records, materialised from the monitor's log, to dst.
func (g *GroupRuntime) AppendRecordsAt(dst []monitor.QueryRecord, at sim.Time) []monitor.QueryRecord {
	g.dom.Advance(at, func(*sim.Engine) { dst = g.Monitor.AppendRecords(dst) })
	return dst
}

// AppendTenantRecordsAt advances the group to at and appends one tenant's
// completed query records to dst; the filter runs on the log's refs, so the
// domain is held only for the scan and the tenant's own rows.
func (g *GroupRuntime) AppendTenantRecordsAt(dst []monitor.QueryRecord, tenantID string, at sim.Time) []monitor.QueryRecord {
	g.dom.Advance(at, func(*sim.Engine) { dst = g.Monitor.AppendTenantRecords(dst, tenantID) })
	return dst
}

// Plane is the runtime half of a deployment: the deployed groups, a
// tenant→group index for O(1) dispatch at the front door, and the groups'
// clock domains in deployment order.
//
// The plane is built once: the Deployment Master adds every group before it
// returns the deployment, and nothing changes it afterwards. So concurrent
// readers — submits, scrapes — take no lock here.
type Plane struct {
	groups  []*GroupRuntime
	byTen   map[string]tenantEntry
	domains sim.Domains
	hub     *telemetry.Hub
}

// tenantEntry is one front-door index entry: the tenant's group plus its
// interned ref in that group, resolved once at deploy so the submit hot path
// never hashes the tenant string below the plane.
type tenantEntry struct {
	g   *GroupRuntime
	ref tenant.Ref
	id  string // the plane's own copy of the key, see Lookup
}

// NewPlane creates an empty plane.
func NewPlane(hub *telemetry.Hub) *Plane {
	return &Plane{byTen: make(map[string]tenantEntry), hub: hub}
}

// Add registers a bound group: it is indexed by member tenant, with each
// member's ref resolved in the group's router, and its domain joins the
// plane's domains. It is for building the plane, before any reader sees it.
func (p *Plane) Add(g *GroupRuntime) {
	p.groups = append(p.groups, g)
	p.domains = append(p.domains, g.dom)
	for _, tn := range g.Members {
		p.byTen[tn.ID] = tenantEntry{g: g, ref: g.Router.Ref(tn.ID), id: tn.ID}
	}
}

// Groups returns a snapshot of the plane's groups in deployment order.
func (p *Plane) Groups() []*GroupRuntime {
	return append([]*GroupRuntime(nil), p.groups...)
}

// GroupByID returns the group with the given plan ID.
func (p *Plane) GroupByID(id string) (*GroupRuntime, bool) {
	for _, g := range p.groups {
		if g.Plan.ID == id {
			return g, true
		}
	}
	return nil, false
}

// InstanceByID resolves an MPPDB instance ID (a pool owner string) to its
// group and instance — the lookup the correlated-failure injector uses to
// turn pool casualties back into instance degradations.
func (p *Plane) InstanceByID(id string) (*GroupRuntime, *mppdb.Instance, bool) {
	for _, g := range p.groups {
		for _, inst := range g.Instances {
			if inst.ID() == id {
				return g, inst, true
			}
		}
	}
	return nil, nil, false
}

// ForTenant returns the group hosting the tenant.
func (p *Plane) ForTenant(id string) (*GroupRuntime, bool) {
	e, ok := p.byTen[id]
	return e.g, ok
}

// ForTenantRef returns the group hosting the tenant together with the
// tenant's interned ref in that group, resolved once at deploy.
func (p *Plane) ForTenantRef(id string) (*GroupRuntime, tenant.Ref, bool) {
	e, ok := p.byTen[id]
	return e.g, e.ref, ok
}

// Lookup is ForTenantRef for an id that may not outlive the call, such as a
// string aliasing a request buffer: it also returns the id as the plane
// holds it, which stays valid for as long as the plane. Callers put that one
// into a BatchItem, since admission, events and typed errors keep the item's
// tenant string.
func (p *Plane) Lookup(id string) (*GroupRuntime, tenant.Ref, string, bool) {
	e, ok := p.byTen[id]
	return e.g, e.ref, e.id, ok
}

// Tenants returns the number of indexed tenants.
func (p *Plane) Tenants() int { return len(p.byTen) }

// Hub returns the plane's telemetry hub.
func (p *Plane) Hub() *telemetry.Hub { return p.hub }

// Domains returns a snapshot of the groups' clock domains, in deployment
// order.
func (p *Plane) Domains() sim.Domains {
	return append(sim.Domains(nil), p.domains...)
}

// Now returns the most advanced group clock.
func (p *Plane) Now() sim.Time { return p.domains.Now() }

// AdvanceAll drives every group up to the target time. Read-side endpoints
// use it so a scrape reflects everything that should have happened by now.
// A shedding-only group is skipped: the brownout controller owns its pacing,
// and a scrape must not queue behind — or pile extra work onto — an
// overloaded group.
func (p *Plane) AdvanceAll(at sim.Time) {
	for _, g := range p.groups {
		if !g.SheddingOnly() {
			g.dom.Advance(at, nil)
		}
	}
}

// Records returns all completed query records, materialised from the groups'
// logs into one slice in deployment group order (each group's records in
// completion order).
func (p *Plane) Records() []monitor.QueryRecord {
	groups := p.Groups()
	n := 0
	for _, g := range groups {
		g.dom.Do(func(*sim.Engine) { n += g.Monitor.RecordCount() })
	}
	// Sized from a first pass; groups that completed more since just append.
	out := make([]monitor.QueryRecord, 0, n)
	for _, g := range groups {
		g.dom.Do(func(*sim.Engine) { out = g.Monitor.AppendRecords(out) })
	}
	return out
}
