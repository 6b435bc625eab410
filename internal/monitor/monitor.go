// Package monitor implements the Tenant Activity Monitor (thesis §3a, §5.1):
// it observes query starts and finishes per tenant-group, derives tenant
// activity, and maintains the run-time TTP (RT-TTP) over a sliding window —
// the signal that triggers lightweight elastic scaling when it drops below
// the performance SLA guarantee P.
//
// Per-tenant state is one slice indexed by tenant.Ref. The router reports
// starts and finishes by ref (QueryStartedRef, QueryFinishedRef); the
// string-keyed methods resolve the tenant once and do the same work.
package monitor

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/epoch"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// QueryRecord is one completed query observation.
type QueryRecord struct {
	Tenant string
	Class  *queries.Class
	Submit sim.Time
	Finish sim.Time
	// SLATarget is the latency the tenant is entitled to: the isolated
	// latency on its requested configuration.
	SLATarget sim.Time
	// MPPDB is the instance that served the query.
	MPPDB string
}

// Latency returns the observed latency.
func (r QueryRecord) Latency() sim.Time { return r.Finish - r.Submit }

// Normalized returns latency divided by the SLA target — the Fig 7.7b/d
// metric ("1.0 means a query has finished execution as quick as it should be
// when measured in an isolated environment").
func (r QueryRecord) Normalized() float64 {
	if r.SLATarget <= 0 {
		return 1
	}
	return float64(r.Latency()) / float64(r.SLATarget)
}

// SLAMet reports whether the query met its latency SLA. A small tolerance
// absorbs float-to-duration rounding in the simulator.
func (r QueryRecord) SLAMet() bool { return r.Normalized() <= 1.0+1e-9 }

// tenantState is everything the monitor keeps about one tenant.
type tenantState struct {
	// inflight counts the tenant's running queries; it is active (the strong
	// notion: at least one query in flight) since activeSince while positive.
	inflight    int
	activeSince sim.Time
	// ivs accumulates closed activity intervals, pruned to the window (used
	// by over-active identification).
	ivs intervals
	// tally is the tenant's line in the hub's SLA account, fetched at its
	// first completion under the attached hub.
	tally *telemetry.SLATally
	// finished counts the tenant's entries in the record log.
	finished int
	// excluded tenants no longer count toward the group's activity (their
	// queries moved to a dedicated MPPDB after elastic scaling: "the
	// tenant-group excluded all the activities of the removed tenant").
	excluded bool
	// closed is set once the tenant has closed an activity interval: Tenants
	// lists it from then on, also after the window pruned every interval.
	closed bool
}

// GroupMonitor tracks one tenant-group.
type GroupMonitor struct {
	eng    *sim.Engine
	group  string
	r      int
	window time.Duration

	// in assigns the refs that index tenants: the group's interner once a
	// router in ref mode attached it, a private one until then.
	in      *tenant.Interner
	tenants []tenantState
	active  int // tenants with a query in flight

	// Violation tracking: spans during which more than R tenants were
	// active concurrently.
	violations intervals
	overSince  sim.Time
	over       bool

	// observedSince is the start of observation (RT-TTP over a window that
	// extends before it is computed against observed time only).
	observedSince sim.Time

	log recordLog

	// Telemetry (optional): per-query SLA accounting and the group's
	// active-tenant gauge.
	tel        *telemetry.Hub
	mCompleted *telemetry.Counter
	mMissed    *telemetry.Counter
	mActive    *telemetry.Gauge
}

// NewGroup creates a monitor for one tenant-group with the given replication
// factor and sliding window (the thesis uses 24 hours).
func NewGroup(eng *sim.Engine, group string, r int, window time.Duration) (*GroupMonitor, error) {
	if r < 1 {
		return nil, fmt.Errorf("monitor: R=%d", r)
	}
	if window <= 0 {
		return nil, fmt.Errorf("monitor: window %v", window)
	}
	return &GroupMonitor{
		eng:           eng,
		group:         group,
		r:             r,
		window:        window,
		in:            tenant.NewInterner(),
		observedSince: eng.Now(),
	}, nil
}

// Group returns the monitored group's identifier.
func (m *GroupMonitor) Group() string { return m.group }

// SetInterner makes the monitor index tenants by the refs of in — the group
// interner its router and instances share, so the router reports by ref. It
// fails once the monitor has observed a tenant under other refs.
func (m *GroupMonitor) SetInterner(in *tenant.Interner) error {
	if in != m.in && len(m.tenants) > 0 {
		return fmt.Errorf("monitor: group %s already observes tenants under another interner", m.group)
	}
	m.in = in
	return nil
}

// SetTelemetry attaches a telemetry hub: every completed query feeds the
// per-tenant SLA account, misses are published as sla_violation events, and
// the group's active-tenant count is kept as a gauge. A nil hub disables
// instrumentation.
func (m *GroupMonitor) SetTelemetry(h *telemetry.Hub) {
	m.tel = h
	for i := range m.tenants {
		m.tenants[i].tally = nil
	}
	if h == nil {
		return
	}
	m.mCompleted = h.Registry.Counter("thrifty_queries_completed_total", "group", m.group)
	m.mMissed = h.Registry.Counter("thrifty_queries_sla_missed_total", "group", m.group)
	m.mActive = h.Registry.Gauge("thrifty_group_active_tenants", "group", m.group)
}

// state returns the tenant's slot, growing the table to a ref first seen.
func (m *GroupMonitor) state(ref tenant.Ref) *tenantState {
	if int(ref) >= len(m.tenants) {
		m.tenants = append(m.tenants, make([]tenantState, int(ref)+1-len(m.tenants))...)
	}
	return &m.tenants[ref]
}

// known returns the slot of a tenant the monitor has seen, or nil.
func (m *GroupMonitor) known(tenantID string) *tenantState {
	if ref, ok := m.in.Lookup(tenantID); ok && int(ref) < len(m.tenants) {
		return &m.tenants[ref]
	}
	return nil
}

// ActiveTenants returns the number of currently active (non-excluded)
// tenants — the strong notion of active: at least one query in flight.
func (m *GroupMonitor) ActiveTenants() int { return m.active }

// Exclude removes a tenant from the group's activity accounting (after
// elastic scaling moved it to a dedicated MPPDB).
func (m *GroupMonitor) Exclude(tenantID string) {
	st := m.state(m.in.Intern(tenantID))
	if st.excluded {
		return
	}
	// Close out any in-flight activity of the tenant first.
	if st.inflight > 0 {
		st.inflight = 0
		m.tenantInactive(st)
	}
	st.excluded = true
}

// Excluded reports whether the tenant has been excluded.
func (m *GroupMonitor) Excluded(tenantID string) bool {
	st := m.known(tenantID)
	return st != nil && st.excluded
}

// QueryStarted records a query start for the tenant.
func (m *GroupMonitor) QueryStarted(tenantID string) { m.QueryStartedRef(m.in.Intern(tenantID)) }

// QueryStartedRef is QueryStarted for the tenant behind a ref of the
// monitor's interner.
func (m *GroupMonitor) QueryStartedRef(ref tenant.Ref) {
	st := m.state(ref)
	if st.excluded {
		return
	}
	st.inflight++
	if st.inflight == 1 {
		st.activeSince = m.eng.Now()
		m.active++
		m.activeChanged()
	}
}

// QueryFinished records a query completion and logs the full record, untraced.
func (m *GroupMonitor) QueryFinished(rec QueryRecord) {
	m.QueryFinishedRef(m.in.Intern(rec.Tenant), rec, telemetry.Untraced, rec.MPPDB)
}

// QueryFinishedRef is QueryFinished for the tenant behind a ref of the
// monitor's interner; rec.Tenant is not read. The log keeps the query's
// route's trace sequence and the instance it was routed to (TracedRecord).
func (m *GroupMonitor) QueryFinishedRef(ref tenant.Ref, rec QueryRecord, route uint32, routed string) {
	st := m.state(ref)
	met := rec.SLAMet()
	m.log.add(ref, rec, met, route, routed)
	st.finished++
	if m.tel != nil {
		m.mCompleted.Inc()
		if st.tally == nil {
			st.tally = m.tel.SLA.Tally(m.in.ID(ref))
		}
		st.tally.Observe(rec.Normalized(), met)
		if !met {
			m.mMissed.Inc()
			m.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventSLAViolation,
				Group:  m.group,
				Tenant: m.in.ID(ref),
				MPPDB:  rec.MPPDB,
				Value:  rec.Normalized(),
				Detail: rec.Class.ID,
			})
		}
	}
	if st.inflight == 0 {
		return // no start on the books: the tenant was excluded before or while the query ran
	}
	st.inflight--
	if st.inflight == 0 {
		m.tenantInactive(st)
	}
}

// tenantInactive closes the current activity interval of a tenant whose last
// query left.
func (m *GroupMonitor) tenantInactive(st *tenantState) {
	now := m.eng.Now()
	if now > st.activeSince {
		st.ivs.all = append(st.ivs.all, epoch.Interval{Start: st.activeSince, End: now})
		st.closed = true
	}
	m.prune(&st.ivs)
	m.active--
	m.activeChanged()
}

// activeChanged follows a change of the active-tenant count: it opens or
// closes the "more than R active" span and refreshes the gauge.
func (m *GroupMonitor) activeChanged() {
	now := m.eng.Now()
	overNow := m.active > m.r
	switch {
	case overNow && !m.over:
		m.over = true
		m.overSince = now
	case !overNow && m.over:
		m.over = false
		if now > m.overSince {
			m.violations.all = append(m.violations.all, epoch.Interval{Start: m.overSince, End: now})
		}
		m.prune(&m.violations)
	}
	if m.tel != nil {
		m.mActive.Set(float64(m.active))
	}
}

// intervals is an append-only interval list pruned lazily: all[dead:] are
// the live intervals, and the dead prefix is only copied over once it is at
// least half the slice, so a prune costs amortised O(1) per interval.
type intervals struct {
	all  []epoch.Interval
	dead int
}

// live returns the intervals not pruned yet.
func (v *intervals) live() []epoch.Interval { return v.all[v.dead:] }

// prune drops the intervals that ended more than two windows ago. It compacts
// in place: readers get copies, so the backing array is reused across prunes.
func (m *GroupMonitor) prune(v *intervals) {
	cut := m.eng.Now() - sim.Duration(m.window)*2
	for v.dead < len(v.all) && v.all[v.dead].End < cut {
		v.dead++
	}
	if v.dead > 0 && 2*v.dead >= len(v.all) {
		v.all = v.all[:copy(v.all, v.all[v.dead:])]
		v.dead = 0
	}
}

// RTTTP returns the run-time TTP over the trailing window: the fraction of
// observed window time during which at most R tenants were active.
func (m *GroupMonitor) RTTTP() float64 {
	now := m.eng.Now()
	from := now - sim.Duration(m.window)
	if from < m.observedSince {
		from = m.observedSince
	}
	span := now - from
	if span <= 0 {
		return 1
	}
	var viol sim.Time
	for _, v := range m.violations.live() {
		s, e := v.Start, v.End
		if s < from {
			s = from
		}
		if e > s {
			viol += e - s
		}
	}
	if m.over {
		s := m.overSince
		if s < from {
			s = from
		}
		if now > s {
			viol += now - s
		}
	}
	return 1 - float64(viol)/float64(span)
}

// TenantActivity returns the tenant's observed activity within the trailing
// window, as a normalized interval set (an open interval is closed at now).
func (m *GroupMonitor) TenantActivity(tenantID string) epoch.Activity {
	now := m.eng.Now()
	from := now - sim.Duration(m.window)
	var ivs []epoch.Interval
	if st := m.known(tenantID); st != nil {
		ivs = append(ivs, st.ivs.live()...)
		if st.inflight > 0 && now > st.activeSince {
			ivs = append(ivs, epoch.Interval{Start: st.activeSince, End: now})
		}
	}
	return epoch.Normalize(ivs).Clip(from, now)
}

// Tenants returns all tenants with any observed activity (excluded or not),
// sorted.
func (m *GroupMonitor) Tenants() []string {
	out := []string{}
	ids := m.in.IDs()
	for ref := range m.tenants {
		if st := &m.tenants[ref]; st.closed || st.inflight > 0 {
			out = append(out, ids[ref])
		}
	}
	slices.Sort(out)
	return out
}

// Records returns all completed query records (including excluded tenants')
// in completion order, materialised from the log into a new slice.
func (m *GroupMonitor) Records() []QueryRecord { return m.AppendRecords(nil) }

// AppendRecords appends all completed query records to dst.
func (m *GroupMonitor) AppendRecords(dst []QueryRecord) []QueryRecord {
	return m.log.appendTo(dst, m.in.IDs(), tenant.NoRef, m.log.n)
}

// AppendTenantRecords appends one tenant's completed query records to dst;
// other tenants' log entries are passed over without being materialised.
func (m *GroupMonitor) AppendTenantRecords(dst []QueryRecord, tenantID string) []QueryRecord {
	ref, ok := m.in.Lookup(tenantID)
	if !ok || int(ref) >= len(m.tenants) || m.tenants[ref].finished == 0 {
		return dst
	}
	return m.log.appendTo(dst, m.in.IDs(), ref, m.tenants[ref].finished)
}

// TracedRecord returns the i-th record in completion order as its spans need
// it: its route's trace sequence and the instance it was routed to.
func (m *GroupMonitor) TracedRecord(i int) telemetry.QueryOp {
	return m.log.traced(i, m.in.IDs())
}

// RecordCount returns the number of completed-query records retained. The
// log is append-only, so the count alone detects staleness of a copy.
func (m *GroupMonitor) RecordCount() int { return m.log.n }

// SLAAttainment returns the fraction of completed queries that met their
// SLA, kept as a running count. It returns 1 when nothing completed yet.
func (m *GroupMonitor) SLAAttainment() float64 {
	if m.log.n == 0 {
		return 1
	}
	return float64(m.log.met) / float64(m.log.n)
}
