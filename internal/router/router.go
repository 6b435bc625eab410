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
// nothing. The string-keyed entry points resolve the tenant's ref and take
// that path.
package router

import (
	"fmt"

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

// noPartner marks a pending slot with no hedged duplicate.
const noPartner = ^uint64(0)

// pending is one in-flight query's completion context, pooled and addressed
// by the tag issued at submit time. A hedged query occupies two slots: the
// primary holds the full accounting context and the route's trace sequence,
// the hedge slot only what is needed to attribute and cancel — both point at
// each other via partner, and whichever completes first wins and withdraws
// the other.
type pending struct {
	tenantID  string
	ref       tenant.Ref // the tenant's group ref, as the monitor indexes it
	class     *queries.Class
	submit    sim.Time
	slaTarget sim.Time
	dbID      string
	route     uint32
	inst      *mppdb.Instance
	partner   uint64
	hedge     bool
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
	scratchIdx    []int

	// onResult, when set, observes every completed query.
	onResult func(monitor.QueryRecord)
	// onCompletion, when set, observes every real completion with the serving
	// instance — the gray detector's per-instance latency-profile feed
	// (cancelled hedge losers never report).
	onCompletion func(dbID string, res mppdb.Result)

	// Gray-failure response state, indexed parallel to dbs.
	// A gray-flagged instance still receives its routed queries but each is
	// hedged to a healthy peer; a quarantined instance is excluded from
	// routing altogether unless it is the only ready one left.
	grayOn      []bool
	quarantined []bool
	nGray       int
	nQuar       int
	hedges      int64
	hedgeWins   int64

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
	mHedged   *telemetry.Counter
	mHedgeWin *telemetry.Counter
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

// OnResult registers an observer for completed queries.
func (r *GroupRouter) OnResult(fn func(monitor.QueryRecord)) { r.onResult = fn }

// SetTelemetry attaches a telemetry hub. A nil hub disables instrumentation.
func (r *GroupRouter) SetTelemetry(h *telemetry.Hub) {
	r.tel = h
	if h == nil {
		return
	}
	r.mRouted = h.Registry.Counter("thrifty_router_routed_total", "group", r.group)
	r.mOverflow = h.Registry.Counter("thrifty_router_overflow_total", "group", r.group)
	r.mInflight = h.Registry.Gauge("thrifty_router_inflight", "group", r.group)
	r.mHedged = h.Registry.Counter("thrifty_router_hedged_total", "group", r.group)
	r.mHedgeWin = h.Registry.Counter("thrifty_router_hedge_peer_wins_total", "group", r.group)
	if r.mon != nil {
		h.Tracer.Attach((*source)(r))
	}
}

// SetCompletionObserver registers a per-completion observer receiving the
// serving instance's ID and the raw result — the gray detector's feed.
func (r *GroupRouter) SetCompletionObserver(fn func(dbID string, res mppdb.Result)) {
	r.onCompletion = fn
}

// ensureGraySlots sizes the gray/quarantine flag slices to the member set.
func (r *GroupRouter) ensureGraySlots() {
	for len(r.grayOn) < len(r.dbs) {
		r.grayOn = append(r.grayOn, false)
		r.quarantined = append(r.quarantined, false)
	}
}

// dbIndex resolves a group instance ID to its position in dbs (-1 if absent).
func (r *GroupRouter) dbIndex(dbID string) int {
	for i, db := range r.dbs {
		if db.ID() == dbID {
			return i
		}
	}
	return -1
}

// SetGrayFlag marks (or clears) an instance as confirmed-gray: every query
// subsequently routed to it is hedged to a healthy peer (the hedge pairing
// rides the pooled tag table).
func (r *GroupRouter) SetGrayFlag(dbID string, on bool) {
	i := r.dbIndex(dbID)
	if i < 0 {
		return
	}
	r.ensureGraySlots()
	if r.grayOn[i] == on {
		return
	}
	r.grayOn[i] = on
	if on {
		r.nGray++
	} else {
		r.nGray--
	}
}

// SetQuarantine excludes (or re-admits) an instance from routing — the drain
// stage of the gray-response ladder. A quarantined instance still finishes
// its in-flight queries, and it is re-admitted implicitly if it is the only
// ready instance left, so queries are never dropped.
func (r *GroupRouter) SetQuarantine(dbID string, on bool) {
	i := r.dbIndex(dbID)
	if i < 0 {
		return
	}
	r.ensureGraySlots()
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

// HedgeStats returns how many queries were hedged and how many of those
// hedges the peer (not the gray instance) won.
func (r *GroupRouter) HedgeStats() (hedged, peerWins int64) {
	return r.hedges, r.hedgeWins
}

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

// Submit routes one query for the tenant and starts it on the chosen MPPDB.
// The SLA target defaults to the isolated latency on the tenant's requested
// configuration (the before-consolidation latency, §1). The returned
// instance ID indicates where the query went.
func (r *GroupRouter) Submit(tenantID string, class *queries.Class) (string, error) {
	return r.SubmitWithTarget(tenantID, class, 0)
}

// SubmitWithTarget routes a query with an explicit SLA target — replay uses
// the duration recorded on the tenant's own dedicated MPPDB (which includes
// the tenant's self-contention; that slack is the tenant's own business,
// §4.4). A non-positive target falls back to the isolated latency.
func (r *GroupRouter) SubmitWithTarget(tenantID string, class *queries.Class, slaTarget sim.Time) (string, error) {
	ref := r.Ref(tenantID)
	if ref == tenant.NoRef {
		return "", fmt.Errorf("router: unknown tenant %s in group %s", tenantID, r.group)
	}
	return r.SubmitRef(ref, class, slaTarget)
}

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
	r.pending[tag] = pending{partner: noPartner}
	r.freeTags = append(r.freeTags, tag)
}

// completed is the pooled completion handler shared by every group instance:
// it rebuilds the query record from the tag's pending slot and performs the
// observer sequence. For a hedged query, whichever
// copy completes first lands here and withdraws its partner before it can
// report — exactly one QueryFinished per logical query, attributed to the
// instance that actually won.
func (r *GroupRouter) completed(res mppdb.Result, tag uint64) {
	p := &r.pending[tag]
	winnerDB := p.dbID
	prim, partnerTag := p, noPartner
	if p.partner != noPartner {
		partnerTag = p.partner
		q := &r.pending[partnerTag]
		// Cancel the slower copy: no completion fires, no sojourn/completed
		// telemetry is observed, no double accounting anywhere downstream.
		if q.inst != nil {
			q.inst.CancelTagged(partnerTag)
		}
		if p.hedge {
			// The duplicate beat the gray instance — the accounting context
			// lives on the primary slot.
			prim = q
			r.hedgeWins++
			if r.tel != nil {
				r.mHedgeWin.Inc()
			}
		}
	}
	ref, route, routedDB := prim.ref, prim.route, prim.dbID
	rec := monitor.QueryRecord{
		Tenant:    prim.tenantID,
		Class:     prim.class,
		Submit:    prim.submit,
		Finish:    res.Finish,
		SLATarget: prim.slaTarget,
		MPPDB:     winnerDB,
	}
	r.inflight--
	if r.tel != nil {
		r.mInflight.Set(float64(r.inflight))
	}
	r.release(tag)
	if partnerTag != noPartner {
		r.release(partnerTag)
	}
	r.ops, r.ends = r.ops+1, r.ends+1
	if r.mon != nil {
		r.mon.QueryFinishedRef(ref, rec, route, routedDB)
	}
	if r.onResult != nil {
		r.onResult(rec)
	}
	if r.onCompletion != nil {
		r.onCompletion(winnerDB, res)
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
	target, targetRef, targetIdx, err := r.pickRef(ref)
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
		slaTarget: slaTarget, dbID: dbID, route: r.ops, inst: target, partner: noPartner}
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
	// Routed to a confirmed-gray instance: duplicate onto a healthy peer.
	if r.nGray > 0 && targetIdx >= 0 && r.grayOn[targetIdx] {
		r.hedgeTo(tag, targetIdx)
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
		if p := &s.pending[i]; p.tenantID != "" && !p.hedge {
			dst = append(dst, telemetry.QueryOp{Seq: p.route, Submit: p.submit, MPPDB: p.dbID})
		}
	}
	return dst
}

// hedgePeer picks the healthiest eligible duplicate target for a hedge away
// from dbs[exclude]: Ready, not gray, not quarantined, least loaded, ties to
// the lowest index (deterministic). Returns nil when no peer qualifies.
func (r *GroupRouter) hedgePeer(exclude int) *mppdb.Instance {
	var best *mppdb.Instance
	bestLoad := 0
	for i, db := range r.dbs {
		if i == exclude || db.State() != mppdb.Ready {
			continue
		}
		if i < len(r.grayOn) && (r.grayOn[i] || r.quarantined[i]) {
			continue
		}
		if load := db.Running(); best == nil || load < bestLoad {
			best, bestLoad = db, load
		}
	}
	return best
}

// hedgeTo duplicates the in-flight query in pending[tag] onto a healthy
// peer of dbs[grayIdx]. First completion wins; the loser is cancelled.
func (r *GroupRouter) hedgeTo(tag uint64, grayIdx int) {
	peer := r.hedgePeer(grayIdx)
	if peer == nil {
		return
	}
	ht := r.acquireTag()
	// acquireTag may grow the pending slice; re-resolve both slots after.
	h, p := &r.pending[ht], &r.pending[tag]
	*h = pending{tenantID: p.tenantID, ref: p.ref, class: p.class, submit: p.submit,
		slaTarget: p.slaTarget, dbID: peer.ID(), inst: peer, partner: tag, hedge: true}
	if _, err := peer.SubmitHedge(p.ref, p.class, ht); err != nil {
		r.release(ht)
		return
	}
	p.partner = ht
	r.hedges++
	if r.tel != nil {
		r.mHedged.Inc()
	}
}

// HedgeInFlight duplicates every un-hedged in-flight query currently running
// on the given instance onto healthy peers — invoked by the gray detector at
// the moment a suspicion is confirmed, so queries already stuck on the slow
// instance get a second chance too. Returns how many hedges were placed.
func (r *GroupRouter) HedgeInFlight(dbID string) int {
	idx := r.dbIndex(dbID)
	if idx < 0 {
		return 0
	}
	r.ensureGraySlots()
	// Collect first: hedging appends pending slots, which may grow the table
	// mid-iteration.
	var tags []uint64
	for tag := range r.pending {
		p := &r.pending[tag]
		if p.tenantID != "" && !p.hedge && p.partner == noPartner && p.dbID == dbID {
			tags = append(tags, uint64(tag))
		}
	}
	n := 0
	for _, tag := range tags {
		before := r.pending[tag].partner
		r.hedgeTo(tag, idx)
		if r.pending[tag].partner != before {
			n++
		}
	}
	return n
}

// pickRef chooses the target instance: a dedicated override if present, otherwise Algorithm 1 over the group's ready MPPDBs. It also
// returns the tenant's ref in the *target's* interner namespace and the
// target's position in dbs (-1 for an override instance).
func (r *GroupRouter) pickRef(ref tenant.Ref) (*mppdb.Instance, tenant.Ref, int, error) {
	if int(ref) < len(r.overByRef) {
		if o := r.overByRef[ref]; o.db != nil {
			return o.db, o.ref, -1, nil
		}
	}
	// Only Ready instances participate; a replacement MPPDB still loading
	// must not receive queries. Quarantined (draining-gray) instances are
	// skipped too, unless that would leave nothing to route to — a query is
	// never dropped for the sake of a quarantine. The scratch slices are
	// reused across submits — the router is single-threaded under its clock
	// domain.
	states := r.scratchStates[:0]
	ready := r.scratchReady[:0]
	readyIdx := r.scratchIdx[:0]
	for i, db := range r.dbs {
		if db.State() != mppdb.Ready {
			continue
		}
		if r.nQuar > 0 && i < len(r.quarantined) && r.quarantined[i] {
			continue
		}
		states = append(states, db)
		ready = append(ready, db)
		readyIdx = append(readyIdx, i)
	}
	if len(ready) == 0 && r.nQuar > 0 {
		for i, db := range r.dbs {
			if db.State() != mppdb.Ready {
				continue
			}
			states = append(states, db)
			ready = append(ready, db)
			readyIdx = append(readyIdx, i)
		}
	}
	r.scratchStates, r.scratchReady, r.scratchIdx = states, ready, readyIdx
	if len(ready) == 0 {
		return nil, tenant.NoRef, -1, fmt.Errorf("router: group %s has no ready MPPDB", r.group)
	}
	idx, err := tdd.RouteRef(ref, states)
	if err != nil {
		return nil, tenant.NoRef, -1, err
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
	return chosen, ref, readyIdx[idx], nil
}
