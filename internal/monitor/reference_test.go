package monitor

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/epoch"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// refMonitor is the map-and-slice monitor this package shipped before
// per-tenant state moved onto refs and the record log into chunks, kept
// verbatim as the oracle TestMonitorMatchesReference and FuzzMonitorOps
// compare the implementation against.
type refMonitor struct {
	eng    *sim.Engine
	group  string
	r      int
	window time.Duration

	// inflight counts running queries per (non-excluded) tenant.
	inflight map[string]int
	// excluded tenants no longer count toward the group's activity (their
	// queries moved to a dedicated MPPDB after elastic scaling: "the
	// tenant-group excluded all the activities of the removed tenant").
	excluded map[string]bool
	// activeSince records when each currently-active tenant became active.
	activeSince map[string]sim.Time
	// perTenant accumulates closed activity intervals per tenant, pruned to
	// the window (used by over-active identification).
	perTenant map[string][]epoch.Interval

	// Violation tracking: spans during which more than R tenants were
	// active concurrently.
	violations []epoch.Interval
	overSince  sim.Time
	over       bool

	// observedSince is the start of observation (RT-TTP over a window that
	// extends before it is computed against observed time only).
	observedSince sim.Time

	records []QueryRecord

	// Telemetry (optional): per-query SLA accounting and the group's
	// active-tenant gauge.
	tel        *telemetry.Hub
	mCompleted *telemetry.Counter
	mMissed    *telemetry.Counter
	mActive    *telemetry.Gauge
}

// NewGroup creates a monitor for one tenant-group with the given replication
// factor and sliding window (the thesis uses 24 hours).
func newReference(eng *sim.Engine, group string, r int, window time.Duration) (*refMonitor, error) {
	if r < 1 {
		return nil, fmt.Errorf("monitor: R=%d", r)
	}
	if window <= 0 {
		return nil, fmt.Errorf("monitor: window %v", window)
	}
	return &refMonitor{
		eng:           eng,
		group:         group,
		r:             r,
		window:        window,
		inflight:      make(map[string]int),
		excluded:      make(map[string]bool),
		activeSince:   make(map[string]sim.Time),
		perTenant:     make(map[string][]epoch.Interval),
		observedSince: eng.Now(),
	}, nil
}

// Group returns the monitored group's identifier.
func (m *refMonitor) Group() string { return m.group }

// SetTelemetry attaches a telemetry hub: every completed query feeds the
// per-tenant SLA account, misses are published as sla_violation events, and
// the group's active-tenant count is kept as a gauge. A nil hub disables
// instrumentation.
func (m *refMonitor) SetTelemetry(h *telemetry.Hub) {
	m.tel = h
	if h == nil {
		return
	}
	m.mCompleted = h.Registry.Counter("thrifty_queries_completed_total", "group", m.group)
	m.mMissed = h.Registry.Counter("thrifty_queries_sla_missed_total", "group", m.group)
	m.mActive = h.Registry.Gauge("thrifty_group_active_tenants", "group", m.group)
}

// ActiveTenants returns the number of currently active (non-excluded)
// tenants — the strong notion of active: at least one query in flight.
func (m *refMonitor) ActiveTenants() int { return len(m.inflight) }

// Exclude removes a tenant from the group's activity accounting (after
// elastic scaling moved it to a dedicated MPPDB).
func (m *refMonitor) Exclude(tenant string) {
	if m.excluded[tenant] {
		return
	}
	// Close out any in-flight activity of the tenant first.
	if m.inflight[tenant] > 0 {
		delete(m.inflight, tenant)
		m.tenantInactive(tenant)
		m.recheckViolation()
		if m.tel != nil {
			m.mActive.Set(float64(len(m.inflight)))
		}
	}
	m.excluded[tenant] = true
}

// Excluded reports whether the tenant has been excluded.
func (m *refMonitor) Excluded(tenant string) bool { return m.excluded[tenant] }

// QueryStarted records a query start for the tenant.
func (m *refMonitor) QueryStarted(tenant string) {
	if m.excluded[tenant] {
		return
	}
	m.inflight[tenant]++
	if m.inflight[tenant] == 1 {
		m.activeSince[tenant] = m.eng.Now()
		m.recheckViolation()
		if m.tel != nil {
			m.mActive.Set(float64(len(m.inflight)))
		}
	}
}

// QueryFinished records a query completion and, optionally, the full record.
func (m *refMonitor) QueryFinished(rec QueryRecord) {
	if len(m.records) == cap(m.records) {
		// Double. append grows a large slice by a quarter, which copies and
		// clears the log about five times over while a replay fills it.
		m.records = slices.Grow(m.records, max(len(m.records), 64))
	}
	m.records = append(m.records, rec)
	if m.tel != nil {
		met := rec.SLAMet()
		m.mCompleted.Inc()
		m.tel.SLA.Observe(rec.Tenant, rec.Normalized(), met)
		if !met {
			m.mMissed.Inc()
			m.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventSLAViolation,
				Group:  m.group,
				Tenant: rec.Tenant,
				MPPDB:  rec.MPPDB,
				Value:  rec.Normalized(),
				Detail: rec.Class.ID,
			})
		}
	}
	t := rec.Tenant
	if m.excluded[t] {
		return
	}
	if m.inflight[t] == 0 {
		return // start was recorded before an Exclude; ignore
	}
	m.inflight[t]--
	if m.inflight[t] == 0 {
		delete(m.inflight, t)
		m.tenantInactive(t)
		m.recheckViolation()
		if m.tel != nil {
			m.mActive.Set(float64(len(m.inflight)))
		}
	}
}

// tenantInactive closes the tenant's current activity interval.
func (m *refMonitor) tenantInactive(t string) {
	start, ok := m.activeSince[t]
	if !ok {
		return
	}
	delete(m.activeSince, t)
	now := m.eng.Now()
	if now > start {
		m.perTenant[t] = append(m.perTenant[t], epoch.Interval{Start: start, End: now})
	}
	m.pruneTenant(t)
}

// recheckViolation opens or closes the "more than R active" span.
func (m *refMonitor) recheckViolation() {
	now := m.eng.Now()
	overNow := len(m.inflight) > m.r
	switch {
	case overNow && !m.over:
		m.over = true
		m.overSince = now
	case !overNow && m.over:
		m.over = false
		if now > m.overSince {
			m.violations = append(m.violations, epoch.Interval{Start: m.overSince, End: now})
		}
		m.pruneViolations()
	}
}

func (m *refMonitor) pruneViolations() {
	cut := m.eng.Now() - sim.Duration(m.window)*2
	i := 0
	for i < len(m.violations) && m.violations[i].End < cut {
		i++
	}
	if i > 0 {
		// Shift in place: the slice is internal-only (readers copy), so
		// pruning must not reallocate on every violation close.
		n := copy(m.violations, m.violations[i:])
		m.violations = m.violations[:n]
	}
}

func (m *refMonitor) pruneTenant(t string) {
	cut := m.eng.Now() - sim.Duration(m.window)*2
	ivs := m.perTenant[t]
	i := 0
	for i < len(ivs) && ivs[i].End < cut {
		i++
	}
	if i > 0 {
		// Shift in place: TenantActivity hands callers a copy, so the
		// per-tenant log can reuse its backing array across prunes.
		n := copy(ivs, ivs[i:])
		m.perTenant[t] = ivs[:n]
	}
}

// RTTTP returns the run-time TTP over the trailing window: the fraction of
// observed window time during which at most R tenants were active.
func (m *refMonitor) RTTTP() float64 {
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
	for _, v := range m.violations {
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
func (m *refMonitor) TenantActivity(tenant string) epoch.Activity {
	now := m.eng.Now()
	from := now - sim.Duration(m.window)
	ivs := append([]epoch.Interval(nil), m.perTenant[tenant]...)
	if s, ok := m.activeSince[tenant]; ok && now > s {
		ivs = append(ivs, epoch.Interval{Start: s, End: now})
	}
	return epoch.Normalize(ivs).Clip(from, now)
}

// Tenants returns all tenants with any observed activity (excluded or not).
func (m *refMonitor) Tenants() []string {
	seen := map[string]bool{}
	for t := range m.perTenant {
		seen[t] = true
	}
	for t := range m.activeSince {
		seen[t] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Records returns all completed query records (including excluded tenants').
func (m *refMonitor) Records() []QueryRecord { return m.records }

// RecordCount returns the number of completed-query records retained. The
// log is append-only, so the count alone detects staleness of a copy.
func (m *refMonitor) RecordCount() int { return len(m.records) }

// SLAAttainment returns the fraction of completed queries that met their
// SLA. It returns 1 when nothing completed yet.
func (m *refMonitor) SLAAttainment() float64 {
	if len(m.records) == 0 {
		return 1
	}
	met := 0
	for _, r := range m.records {
		if r.SLAMet() {
			met++
		}
	}
	return float64(met) / float64(len(m.records))
}
