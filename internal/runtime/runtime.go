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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/router"
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
	// Recovery, when non-nil, is the group's autonomous failure-recovery
	// controller (§4.4), armed by the Deployment Master or the replay
	// failure injector. It lives on the group's engine.
	Recovery *recovery.Controller
	// Gray, when non-nil, is the group's fail-slow detector: peer-relative
	// completion-latency anomaly detection driving the hedge → drain
	// response ladder. It lives on the group's engine and requires Recovery
	// (the drain rung replaces the slow node through it).
	Gray *recovery.GrayDetector
	// Admission, when non-nil, is the group's overload-protection
	// controller: per-tenant contract buckets, the bounded admission
	// queue, and the brownout loop. It lives on the group's engine and is
	// consulted by SubmitGoverned.
	Admission *admission.Controller

	dom *sim.Domain

	// sheddingOnly is set by the brownout controller at its top level:
	// stats readers then serve the cached snapshot instead of advancing or
	// locking the overloaded group's domain.
	sheddingOnly atomic.Bool
	lastStats    atomic.Pointer[Stats]

	// Telemetry (optional): submit-path retry/timeout instrumentation.
	tel      *telemetry.Hub
	mRetried *telemetry.Counter
	mTimeout *telemetry.Counter
	hRetries *telemetry.Histogram
}

// SetTelemetry attaches a telemetry hub for the group's submit-path retry
// instrumentation. A nil hub disables it.
func (g *GroupRuntime) SetTelemetry(h *telemetry.Hub) {
	g.tel = h
	if h == nil {
		return
	}
	g.mRetried = h.Registry.Counter("thrifty_query_retried_total", "group", g.Plan.ID)
	g.mTimeout = h.Registry.Counter("thrifty_query_timeout_total", "group", g.Plan.ID)
	g.hRetries = h.Registry.Histogram("thrifty_query_retries",
		[]float64{0, 1, 2, 3, 5, 8}, "group", g.Plan.ID)
}

// Bind attaches the group's clock domain. The Deployment Master calls it
// once, right after constructing the group's subsystems on the domain's
// engine.
func (g *GroupRuntime) Bind(dom *sim.Domain) { g.dom = dom }

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

// DefaultRetryPolicy matches the service front end's defaults: three retries
// 30 s apart within a 5-minute budget.
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

// SubmitGoverned advances the group to at and routes one query for the
// tenant through the group's router (TDD Algorithm 1), shielding the caller
// from transient routing failures: when the router cannot place the query
// (every replica of the set R busy recovering or not Ready), the submit is
// re-tried at virtual-time backoff — the domain is released between attempts,
// so other callers and the group's own recovery keep progressing. Once the
// policy is exhausted it returns a *TimeoutError. A non-positive sla falls
// back to the tenant's isolated latency. It returns the chosen MPPDB's ID and
// the number of retries used.
//
// With an admission controller armed, the first attempt must pass the
// tenant's contract bucket and the brownout policy — a typed
// *admission.ContractExceededError (429) or *admission.ShedError (503) is
// returned immediately, before any routing work. A submit that fails
// transiently claims a slot in the bounded admission queue for the wait; if
// the queue is full, or the projected start delay alone would blow the
// query's SLA deadline, the query is shed with a typed *admission.ShedError
// instead of occupying the group. bestEffort marks traffic the brownout
// controller may drop wholesale at its top level.
//
// SubmitGoverned is a one-item batch: there is a single retry/admission
// implementation, SubmitBatchAt, and this is its scalar shim.
func (g *GroupRuntime) SubmitGoverned(at sim.Time, tenantID string, class *queries.Class,
	sla sim.Time, pol RetryPolicy, bestEffort bool) (string, int, error) {
	items := [1]BatchItem{{Tenant: tenantID, Class: class, SLA: sla, BestEffort: bestEffort}}
	var outs [1]BatchOutcome
	g.SubmitBatchAt(at, items[:], outs[:], pol)
	return outs[0].DB, outs[0].Retries, outs[0].Err
}

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
// success, or the typed error (*admission.ContractExceededError,
// *admission.ShedError, *TimeoutError, or a permanent routing error).
// Outcomes are strictly per item — one item's failure never affects its
// batch-mates.
type BatchOutcome struct {
	DB      string
	Retries int
	Err     error
}

// SubmitBatchAt advances the group to at once and routes all items inside a
// single engine callback — one domain lock and one Advance per batch (plus
// one per backoff round while any item retries), instead of one per query.
// Results land in outs (which must be at least as long as items); item i's
// outcome is outs[i].
//
// Per-item semantics are identical to SubmitGoverned: admission is consulted
// once per item, transient routing failures claim an admission queue slot
// and retry on the policy's backoff, and exhaustion yields a *TimeoutError.
// Items are processed in slice order, so a batch at time t is
// operation-for-operation equivalent to submitting its items sequentially at
// t — same-seed telemetry is byte-identical (the determinism guard pins
// this). Retry rounds run round-major: every live item attempts once per
// round before the clock moves again.
// batchScratch is the reusable round-tracking state of one SubmitBatchAt
// call, pooled so steady-state batched submits allocate nothing here.
type batchScratch struct {
	live   []int
	queued []bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

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

	// live holds the indices of items still in flight across rounds; queued
	// marks items holding an admission queue slot. Both come from a pool so
	// a steady stream of batches allocates nothing here.
	sc := batchScratchPool.Get().(*batchScratch)
	live := sc.live[:0]
	defer func() {
		sc.live = live[:0]
		batchScratchPool.Put(sc)
	}()
	if cap(sc.queued) < n {
		sc.queued = make([]bool, n)
	}
	queued := sc.queued[:n]
	clear(queued)

	// attempt runs one routing attempt for item i at round `retries` and
	// reports whether the item stays live. In-domain only.
	attempt := func(i, retries int, t sim.Time) bool {
		it := &items[i]
		ref := tenant.NoRef
		if it.HasRef {
			ref = it.Ref
		} else if r := g.Router; r != nil {
			ref = r.Ref(it.Tenant)
		}
		if adm != nil && retries == 0 {
			var admErr error
			if ref != tenant.NoRef {
				admErr = adm.AdmitRef(ref, it.SLA, it.BestEffort)
			} else {
				admErr = adm.Admit(it.Tenant, it.SLA, it.BestEffort)
			}
			if admErr != nil {
				outs[i].Err = admErr
				return false
			}
		}
		var db string
		var err error
		if ref != tenant.NoRef {
			db, err = g.Router.SubmitRef(ref, it.Class, it.SLA)
		} else {
			db, err = g.Router.SubmitWithTarget(it.Tenant, it.Class, it.SLA)
		}
		if err == nil {
			if queued[i] {
				adm.LeaveQueue()
				queued[i] = false
			}
			outs[i].DB = db
			outs[i].Retries = retries
			if g.hRetries != nil {
				g.hRetries.Observe(float64(retries))
			}
			return false
		}
		if !g.Router.HasTenant(it.Tenant) {
			// Permanent: this group will never accept the tenant.
			if queued[i] {
				adm.LeaveQueue()
				queued[i] = false
			}
			outs[i].Retries = retries
			outs[i].Err = err
			return false
		}
		if next := t + sim.Duration(pol.Backoff); retries < pol.MaxRetries && next <= deadline {
			if adm != nil && !queued[i] {
				if shedErr := adm.EnterQueue(it.Tenant, it.SLA, next-at); shedErr != nil {
					outs[i].Retries = retries
					outs[i].Err = shedErr
					return false
				}
				queued[i] = true
			}
			if g.tel != nil {
				g.mRetried.Inc()
				g.tel.Events.Publish(telemetry.Event{
					Type:   telemetry.EventQueryRetried,
					Group:  g.Plan.ID,
					Tenant: it.Tenant,
					Value:  float64(retries + 1),
					Detail: err.Error(),
				})
			}
			return true
		}
		if queued[i] {
			adm.LeaveQueue()
			queued[i] = false
		}
		if g.tel != nil {
			g.mTimeout.Inc()
			g.hRetries.Observe(float64(retries))
			g.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventQueryTimeout,
				Group:  g.Plan.ID,
				Tenant: it.Tenant,
				Value:  float64(retries),
				Detail: err.Error(),
			})
		}
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

// snapshot collects Stats; the caller must hold the group's domain. The
// snapshot is also cached for shedding-only readers.
func (g *GroupRuntime) snapshot() Stats {
	st := Stats{
		Group:         g.Plan.ID,
		Members:       len(g.Members),
		ActiveTenants: g.Monitor.ActiveTenants(),
		RTTTP:         g.Monitor.RTTTP(),
		SLAAttainment: g.Monitor.SLAAttainment(),
		Routed:        g.Router.Routed(),
		Overflowed:    g.Router.Overflowed(),
	}
	for _, inst := range g.Instances {
		st.Instances = append(st.Instances, inst.Snapshot())
	}
	g.lastStats.Store(&st)
	return st
}

// CacheStats refreshes the cached snapshot; the caller must hold the
// group's domain. The admission controller's brownout tick calls it so
// shedding-only readers see stats no staler than one tick.
func (g *GroupRuntime) CacheStats() { g.snapshot() }

// SetSheddingOnly marks the group shedding-only: stats readers serve the
// cached snapshot instead of advancing or locking the group's domain, so
// read endpoints stay fast while the group digs out of overload. The
// brownout controller toggles it at its top level.
func (g *GroupRuntime) SetSheddingOnly(v bool) { g.sheddingOnly.Store(v) }

// SheddingOnly reports whether the group is marked shedding-only.
func (g *GroupRuntime) SheddingOnly() bool { return g.sheddingOnly.Load() }

// Stats snapshots the group at its current virtual time. A shedding-only
// group returns its cached snapshot without touching the domain.
func (g *GroupRuntime) Stats() Stats {
	if g.sheddingOnly.Load() {
		if st := g.lastStats.Load(); st != nil {
			return *st
		}
	}
	var st Stats
	g.dom.Do(func(*sim.Engine) { st = g.snapshot() })
	return st
}

// StatsAt advances the group to at and snapshots it. A shedding-only group
// returns its cached snapshot without advancing or locking the domain.
func (g *GroupRuntime) StatsAt(at sim.Time) Stats {
	if g.sheddingOnly.Load() {
		if st := g.lastStats.Load(); st != nil {
			return *st
		}
	}
	var st Stats
	g.dom.Advance(at, func(*sim.Engine) { st = g.snapshot() })
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

// RecordCountAt advances the group to at and returns how many completed
// query records it holds. The record log is append-only, so an unchanged
// count means an unchanged log — the service's records cache keys on it to
// skip re-copying and re-sorting.
func (g *GroupRuntime) RecordCountAt(at sim.Time) int {
	var n int
	g.dom.Advance(at, func(*sim.Engine) { n = g.Monitor.RecordCount() })
	return n
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
		e := tenantEntry{g: g, ref: tenant.NoRef, id: tn.ID}
		if g.Router != nil {
			e.ref = g.Router.Ref(tn.ID)
		}
		p.byTen[tn.ID] = e
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
// tenant's interned ref in that group, resolved once at deploy. The ref is
// NoRef only for a group bound without a router.
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
