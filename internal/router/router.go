// Package router is the run-time Query Router (thesis §3d): it accepts
// tenant queries and routes each to the proper MPPDB of the tenant's group
// according to the TDD routing policy (Algorithm 1), reports query
// completions to the Tenant Activity Monitor, and supports re-pointing
// over-active tenants to dedicated MPPDBs after elastic scaling.
//
// The group's MPPDBs share one tenant.Interner (how the Deployment Master
// wires groups; NewGroup insists on it), so the router has one submit path:
// tenants are dense indices, routing state lives in flat slices, completions
// report through one pooled tag table, and a steady-state submit allocates
// nothing. Callers resolve a tenant's ref once (Ref) and submit through
// SubmitRef.
package router

import (
	"fmt"
	"slices"

	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tdd"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// override pairs a dedicated MPPDB with the tenant's ref in *that* MPPDB's
// interner (an elastically-added instance may not share the group interner).
type override struct {
	db  *mppdb.Instance
	ref tenant.Ref
}

// pending is one in-flight query's completion context, pooled and addressed
// by the tag issued at submit time.
type pending struct {
	tenantID  string
	ref       tenant.Ref // the tenant's group ref, as the monitor indexes it
	class     *queries.Class
	submit    sim.Time
	slaTarget sim.Time
	dbID      string
	route     uint32
}

// GroupRouter routes queries for one tenant-group.
type GroupRouter struct {
	eng   *sim.Engine
	group string
	dbs   []*mppdb.Instance // index 0 is the tuning MPPDB G₀
	mon   *monitor.GroupMonitor

	// The group interner shared with every instance; members and overrides
	// (an over-active tenant's dedicated MPPDB, which now serves it
	// exclusively) indexed by ref, with the number of members; the pooled
	// completion table; and routing scratch space reused across submits.
	in            *tenant.Interner
	byRef         []*tenant.Tenant
	members       int
	overByRef     []override
	pending       []pending
	freeTags      []uint64
	scratchStates []tdd.MPPDBStateRef
	scratchReady  []*mppdb.Instance

	// Quarantine flags, indexed parallel to dbs: a quarantined instance is
	// excluded from routing unless it is the only ready one left.
	quarantined []bool
	nQuar       int

	routed   int64
	overflow int64 // queries sent to a busy G₀ (Algorithm 1 line 10)
	inflight int64 // routed queries not yet completed, the gauge's value

	// The group's trace ops: ops numbers routes, ends and refused submits as
	// they happen, ends counts the ends (the monitor logs their records),
	// refused holds the refused submits. The tracer reads them (source).
	ops, ends uint32
	refused   []telemetry.QueryOp

	// Telemetry (optional): routing counters, the group's in-flight gauge,
	// and the group's trace ops as a source of the hub's tracer.
	tel       *telemetry.Hub
	mRouted   *telemetry.Counter
	mOverflow *telemetry.Counter
	mInflight *telemetry.Gauge
}

// NewGroup builds a router over the group's A MPPDB instances. dbs[0] is the
// tuning MPPDB. The instances must share one interner (mppdb.NewInterned) —
// refs are only comparable across the group then — and every member tenant
// must already be deployed on every instance (the TDD tenant placement).
func NewGroup(eng *sim.Engine, group string, dbs []*mppdb.Instance,
	members []*tenant.Tenant, mon *monitor.GroupMonitor) (*GroupRouter, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("router: group %s has no MPPDBs", group)
	}
	r := &GroupRouter{
		eng:   eng,
		group: group,
		dbs:   dbs,
		mon:   mon,
		in:    dbs[0].Interner(),
	}
	for _, db := range dbs {
		if db.Interner() != r.in {
			return nil, fmt.Errorf("router: %s does not share group %s's tenant interner", db.ID(), group)
		}
	}
	for _, m := range members {
		for _, db := range dbs {
			if !db.HasTenant(m.ID) {
				return nil, fmt.Errorf("router: tenant %s not deployed on %s", m.ID, db.ID())
			}
		}
		r.indexMember(r.in.Intern(m.ID), m)
	}
	for _, db := range dbs {
		db.SetCompletionHandler(r.completed)
	}
	if mon != nil {
		// The monitor indexes tenants by the same refs from here on.
		if err := mon.SetInterner(r.in); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// indexMember records a member tenant under its group ref.
func (r *GroupRouter) indexMember(ref tenant.Ref, tn *tenant.Tenant) {
	for int(ref) >= len(r.byRef) {
		r.byRef = append(r.byRef, nil)
		r.overByRef = append(r.overByRef, override{})
	}
	if r.byRef[ref] == nil {
		r.members++
	}
	r.byRef[ref] = tn
}

// Group returns the group's identifier.
func (r *GroupRouter) Group() string { return r.group }

// Instances returns the group's MPPDBs (G₀ first).
func (r *GroupRouter) Instances() []*mppdb.Instance { return r.dbs }

// Members returns the number of member tenants.
func (r *GroupRouter) Members() int { return r.members }

// Interner returns the group interner.
func (r *GroupRouter) Interner() *tenant.Interner { return r.in }

// HasTenant reports whether the tenant belongs to this group.
func (r *GroupRouter) HasTenant(id string) bool { return r.Ref(id) != tenant.NoRef }

// Ref resolves a member tenant to its group ref (NoRef when the tenant is not
// a member).
func (r *GroupRouter) Ref(id string) tenant.Ref {
	ref, ok := r.in.Lookup(id)
	if !ok || int(ref) >= len(r.byRef) || r.byRef[ref] == nil {
		return tenant.NoRef
	}
	return ref
}

// SetTelemetry attaches a telemetry hub. A nil hub disables instrumentation.
func (r *GroupRouter) SetTelemetry(h *telemetry.Hub) {
	r.tel = h
	if h == nil {
		return
	}
	r.mRouted = h.Registry.Counter("thrifty_router_routed_total", "group", r.group)
	r.mOverflow = h.Registry.Counter("thrifty_router_overflow_total", "group", r.group)
	r.mInflight = h.Registry.Gauge("thrifty_router_inflight", "group", r.group)
	if r.mon != nil {
		h.Tracer.Attach((*source)(r))
	}
}

// SetQuarantine excludes (or re-admits) an instance from routing — a domain
// outage pulls an instance that lost most of its nodes. A quarantined
// instance still finishes its in-flight queries, and it is re-admitted
// implicitly if it is the only ready instance left, so queries are never
// dropped.
func (r *GroupRouter) SetQuarantine(dbID string, on bool) {
	i := slices.IndexFunc(r.dbs, func(db *mppdb.Instance) bool { return db.ID() == dbID })
	if i < 0 {
		return
	}
	for len(r.quarantined) < len(r.dbs) {
		r.quarantined = append(r.quarantined, false)
	}
	if r.quarantined[i] == on {
		return
	}
	r.quarantined[i] = on
	if on {
		r.nQuar++
	} else {
		r.nQuar--
	}
}

// Quarantined returns how many instances are currently quarantined.
func (r *GroupRouter) Quarantined() int { return r.nQuar }

// SetOverride directs all future queries of the tenant to a dedicated MPPDB
// (the §5.1 elastic-scaling outcome: "Thrifty routed all the queries to the
// new MPPDB"). The instance must be Ready and hold the tenant's data.
func (r *GroupRouter) SetOverride(tenantID string, db *mppdb.Instance) error {
	ref := r.Ref(tenantID)
	if ref == tenant.NoRef {
		return fmt.Errorf("router: tenant %s not in group %s", tenantID, r.group)
	}
	if db.State() != mppdb.Ready {
		return fmt.Errorf("router: override MPPDB %s is %v", db.ID(), db.State())
	}
	if !db.HasTenant(tenantID) {
		return fmt.Errorf("router: override MPPDB %s lacks tenant %s", db.ID(), tenantID)
	}
	// The override's interner may be private to that instance; record the
	// tenant's ref in *its* namespace.
	dbRef, _ := db.Interner().Lookup(tenantID)
	r.overByRef[ref] = override{db: db, ref: dbRef}
	db.SetCompletionHandler(r.completed)
	if r.mon != nil {
		r.mon.Exclude(tenantID)
	}
	return nil
}

// Override returns the tenant's dedicated MPPDB, if any.
func (r *GroupRouter) Override(tenantID string) (*mppdb.Instance, bool) {
	ref := r.Ref(tenantID)
	if ref == tenant.NoRef {
		return nil, false
	}
	db := r.overByRef[ref].db
	return db, db != nil
}

// TenantInFlight returns how many of the tenant's queries are currently
// executing anywhere the router can see (group MPPDBs plus a dedicated
// override instance).
func (r *GroupRouter) TenantInFlight(tenantID string) int {
	n := 0
	for _, db := range r.dbs {
		n += db.TenantRunning(tenantID)
	}
	if db, ok := r.Override(tenantID); ok {
		n += db.TenantRunning(tenantID)
	}
	return n
}

// Routed returns the total number of queries routed.
func (r *GroupRouter) Routed() int64 { return r.routed }

// Overflowed returns the number of queries routed to a busy G₀ because all
// MPPDBs were occupied (the potential SLA-violation path).
func (r *GroupRouter) Overflowed() int64 { return r.overflow }

// acquireTag hands out a pooled completion slot.
func (r *GroupRouter) acquireTag() uint64 {
	if n := len(r.freeTags); n > 0 {
		tag := r.freeTags[n-1]
		r.freeTags = r.freeTags[:n-1]
		return tag
	}
	r.pending = append(r.pending, pending{})
	return uint64(len(r.pending) - 1)
}

// release clears a pending slot's references and returns its tag to the pool.
func (r *GroupRouter) release(tag uint64) {
	r.pending[tag] = pending{}
	r.freeTags = append(r.freeTags, tag)
}

// completed is the pooled completion handler shared by every group instance:
// it rebuilds the query record from the tag's pending slot and reports it to
// the monitor.
func (r *GroupRouter) completed(res mppdb.Result, tag uint64) {
	p := &r.pending[tag]
	ref, route := p.ref, p.route
	rec := monitor.QueryRecord{
		Tenant:    p.tenantID,
		Class:     p.class,
		Submit:    p.submit,
		Finish:    res.Finish,
		SLATarget: p.slaTarget,
		MPPDB:     p.dbID,
	}
	r.inflight--
	if r.tel != nil {
		r.mInflight.Set(float64(r.inflight))
	}
	r.release(tag)
	r.ops, r.ends = r.ops+1, r.ends+1
	if r.mon != nil {
		r.mon.QueryFinishedRef(ref, rec, route)
	}
}

// SubmitRef is the one submit path: one slice index resolves the tenant,
// Algorithm 1 runs over ref-indexed instance state, and the completion
// context, with the route's trace sequence, goes into the pooled tag table —
// no allocation on the steady state. Callers obtain refs via Ref or the group
// interner.
func (r *GroupRouter) SubmitRef(ref tenant.Ref, class *queries.Class, slaTarget sim.Time) (string, error) {
	var tn *tenant.Tenant
	if ref >= 0 && int(ref) < len(r.byRef) {
		tn = r.byRef[ref]
	}
	if tn == nil {
		return "", fmt.Errorf("router: unknown tenant %s in group %s", r.in.ID(ref), r.group)
	}
	target, targetRef, err := r.pickRef(ref)
	if err != nil {
		r.refuse(tn.ID, class.ID, "", err)
		return "", err
	}
	if slaTarget <= 0 {
		slaTarget = sim.Duration(class.Latency(tn.DataGB, tn.Nodes))
	}
	submit := r.eng.Now()
	dbID := target.ID()
	tag := r.acquireTag()
	r.pending[tag] = pending{tenantID: tn.ID, ref: ref, class: class, submit: submit,
		slaTarget: slaTarget, dbID: dbID, route: r.ops}
	if _, err := target.SubmitTagged(targetRef, class, tag); err != nil {
		r.release(tag)
		r.refuse(tn.ID, class.ID, dbID, err)
		return "", err
	}
	// The route is the group's next trace op, on its engine's time. Under
	// processor sharing there is no queueing phase: a query starts executing
	// the instant it is routed.
	r.ops++
	// The completion callback fires via a later engine event, never
	// synchronously inside Submit, so the start is recorded first.
	if r.mon != nil {
		r.mon.QueryStartedRef(ref)
	}
	r.routed++
	r.inflight++
	if r.tel != nil {
		r.mRouted.Inc()
		r.mInflight.Set(float64(r.inflight))
	}
	return dbID, nil
}

// refuse logs a submit that started no query as the group's next trace op:
// dbID is empty when no MPPDB could be picked, else the one that refused.
func (r *GroupRouter) refuse(tenantID, classID, dbID string, err error) {
	now := r.eng.Now()
	r.refused = append(r.refused, telemetry.QueryOp{Seq: r.ops, Submit: now, Finish: now,
		Tenant: tenantID, Class: classID, MPPDB: dbID, Err: err.Error()})
	r.ops++
}

// source is the router as its tracer reads it, the ends' records from its
// monitor's log; SetTelemetry attaches it when the group has a monitor.
type source GroupRouter

func (s *source) Group() string                   { return s.group }
func (s *source) Ops() (n, ends uint32, recs int) { return s.ops, s.ends, s.mon.RecordCount() }
func (s *source) Record(i int) telemetry.QueryOp  { return s.mon.TracedRecord(i) }
func (s *source) Refusals() []telemetry.QueryOp   { return s.refused }

func (s *source) InFlight(dst []telemetry.QueryOp) []telemetry.QueryOp {
	for i := range s.pending {
		if p := &s.pending[i]; p.tenantID != "" {
			dst = append(dst, telemetry.QueryOp{Seq: p.route, Submit: p.submit, MPPDB: p.dbID})
		}
	}
	return dst
}

// pickRef chooses the target instance: a dedicated override if present,
// otherwise Algorithm 1 over the group's ready MPPDBs. It also returns the
// tenant's ref in the *target's* interner namespace.
func (r *GroupRouter) pickRef(ref tenant.Ref) (*mppdb.Instance, tenant.Ref, error) {
	if int(ref) < len(r.overByRef) {
		if o := r.overByRef[ref]; o.db != nil {
			return o.db, o.ref, nil
		}
	}
	// Only Ready instances participate; a replacement MPPDB still loading
	// must not receive queries. Quarantined instances are skipped too, unless that would leave nothing to route to — a query is
	// never dropped for the sake of a quarantine. The scratch slices are
	// reused across submits — the router is single-threaded under its clock
	// domain.
	states := r.scratchStates[:0]
	ready := r.scratchReady[:0]
	for i, db := range r.dbs {
		if db.State() != mppdb.Ready {
			continue
		}
		if r.nQuar > 0 && i < len(r.quarantined) && r.quarantined[i] {
			continue
		}
		states = append(states, db)
		ready = append(ready, db)
	}
	if len(ready) == 0 && r.nQuar > 0 {
		for _, db := range r.dbs {
			if db.State() != mppdb.Ready {
				continue
			}
			states = append(states, db)
			ready = append(ready, db)
		}
	}
	r.scratchStates, r.scratchReady = states, ready
	if len(ready) == 0 {
		return nil, tenant.NoRef, fmt.Errorf("router: group %s has no ready MPPDB", r.group)
	}
	idx, err := tdd.RouteRef(ref, states)
	if err != nil {
		return nil, tenant.NoRef, err
	}
	// Detect the overflow path: the chosen MPPDB is busy with other
	// tenants' queries (concurrent processing on G₀).
	chosen := ready[idx]
	if chosen.Busy() && chosen.RefRunning(ref) == 0 {
		r.overflow++
		if r.tel != nil {
			r.mOverflow.Inc()
		}
	}
	return chosen, ref, nil
}
