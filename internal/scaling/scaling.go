// Package scaling implements Thrifty's lightweight elastic scaling (thesis
// §5.1). When a tenant-group's run-time TTP over the trailing 24-hour window
// drops below the performance SLA guarantee P, the group's scaler identifies
// the over-active tenant(s) — the ones whose recent activity no longer fits
// the group under the grouping algorithm — provisions a new MPPDB sized for
// just those tenants, bulk loads only their data (the lightweight part:
// loading a tenant's 400 GB takes ≈5000 s with parallel loading, versus many
// hours for the whole group), and re-points their queries to the new
// instance. The scaler decides when and for whom; the group's
// cluster.Lifecycle stages the nodes and prices the start-up plus load, and
// a scale-up whose staged nodes fail mid-load is aborted like any other
// (scaling_failed; the group may scale again on a later check).
//
// A scale-up the pool cannot stage queues one claim for its nodes in the
// scarcity triage (recovery.Triage), the one rule for an exhausted pool;
// later checks poll it, and withdraw it once the group holds P again.
// Groups that scaled are flagged for the next re-consolidation cycle.
package scaling

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/recovery"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// CheckInterval is how often a scaler evaluates its group's RT-TTP.
const CheckInterval = 10 * time.Minute

// Config is what the scaler reads from its deployment: the plan's guarantee,
// replication factor and epoch, and the monitors' RT-TTP window.
type Config struct {
	// P is the performance SLA guarantee (fraction, e.g. 0.999).
	P float64
	// R is the replication factor used by over-active identification.
	R int
	// Window is the RT-TTP window (24 h in the thesis).
	Window time.Duration
	// Epoch is the epoch width for over-active identification.
	Epoch sim.Time
}

// Event records one elastic-scaling action.
type Event struct {
	// Group is the tenant-group that scaled.
	Group string
	// Detected is when RT-TTP fell below P.
	Detected sim.Time
	// RTTTP is the group's RT-TTP at detection.
	RTTTP float64
	// OverActive lists the tenants moved to the new MPPDB.
	OverActive []string
	// MPPDB is the new instance's ID.
	MPPDB string
	// Nodes is the new instance's size.
	Nodes int
	// Ready is when the new MPPDB began serving (after startup + load).
	Ready sim.Time
	// Err is non-empty when the action failed.
	Err string
}

// scaleUp is one identified scale-up and the tenants it carves out.
type scaleUp struct {
	ev   Event
	over []*tenant.Tenant
}

// Scaler watches one tenant-group and reacts to its RT-TTP drops. It is
// confined to the group's engine.
type Scaler struct {
	lc      *cluster.Lifecycle
	triage  *recovery.Triage
	cfg     Config
	group   string
	router  *router.GroupRouter
	monitor *monitor.GroupMonitor
	members []*tenant.Tenant
	prio    func() (deficit float64, tenants int)

	scaling bool     // a scale-up is starting up and loading
	waiting *scaleUp // a scale-up queued in the triage, nil when none
	events  []Event
	nextID  int

	// Telemetry: the RT-TTP gauge sampled at every check, a dip event on the
	// below-P transition, and the scaling-phase event timeline.
	tel      *telemetry.Hub
	belowP   bool
	mRTTTP   *telemetry.Gauge
	mActions *telemetry.Counter
	mActive  *telemetry.Gauge
}

// New creates the scaler of the group routed by rt and monitored by mon, on
// the group's lifecycle, armed: its RT-TTP check is queued every
// CheckInterval, as shared events (as is a scale-up's ready) because a check
// may acquire nodes from the pool, so the caller must hold the group's clock
// domain. tel is the group's telemetry view. A scale-up that cannot stage
// waits in tri, the deployment's scarcity triage, ranked by prio's
// SLA-at-risk inputs (sliding RT-TTP deficit, tenant count), as the group's
// recovery claims are.
func New(lc *cluster.Lifecycle, tri *recovery.Triage, tel *telemetry.Hub, rt *router.GroupRouter,
	mon *monitor.GroupMonitor, members []*tenant.Tenant, cfg Config, prio func() (float64, int)) (*Scaler, error) {
	switch {
	case cfg.P <= 0 || cfg.P > 1:
		return nil, fmt.Errorf("scaling: P=%v", cfg.P)
	case cfg.R < 1:
		return nil, fmt.Errorf("scaling: R=%d", cfg.R)
	case tel == nil:
		return nil, fmt.Errorf("scaling: nil telemetry hub for group %s", rt.Group())
	}
	s := &Scaler{
		lc:       lc,
		triage:   tri,
		cfg:      cfg,
		group:    rt.Group(),
		router:   rt,
		monitor:  mon,
		members:  members,
		prio:     prio,
		tel:      tel,
		mRTTTP:   tel.Registry.Gauge("thrifty_group_rt_ttp", "group", rt.Group()),
		mActions: tel.Registry.Counter("thrifty_scaling_actions_total"),
		mActive:  tel.Registry.Gauge("thrifty_scaling_in_progress"),
	}
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		s.check()
		lc.Engine().AfterShared(CheckInterval, tick)
	}
	lc.Engine().AfterShared(CheckInterval, tick)
	return s, nil
}

// Events returns all scaling actions so far.
func (s *Scaler) Events() []Event { return s.events }

// check evaluates the group once. A scale-up waiting in the triage is
// polled, or withdrawn once the group holds P again; otherwise a group below
// P with no scale-up loading identifies its over-active tenants.
func (s *Scaler) check() {
	rt := s.monitor.RTTTP()
	s.mRTTTP.Set(rt)
	// Publish the dip once per crossing, not on every low sample.
	below := rt < s.cfg.P
	if below && !s.belowP {
		s.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRTTTPDip,
			Group:  s.group,
			Value:  rt,
			Detail: fmt.Sprintf("RT-TTP below P=%v", s.cfg.P),
		})
	}
	s.belowP = below
	switch {
	case s.scaling:
	case s.waiting != nil && rt >= s.cfg.P:
		s.triage.Withdraw(s.waiting.ev.MPPDB)
		s.waiting = nil
	case s.waiting != nil:
		s.poll()
	case rt < s.cfg.P:
		s.identify(rt)
	}
}

// IdentifyOverActive runs the over-active-tenant-identification algorithm
// (§5.1): the tenant-grouping algorithm applied to just this group's tenants
// using their *observed* activity of the trailing window. Tenants that no
// longer fit into the group's main tenant-group are over-active.
func (s *Scaler) IdentifyOverActive() ([]*tenant.Tenant, error) {
	now := s.lc.Engine().Now()
	from := now - sim.Duration(s.cfg.Window)
	if from < 0 {
		from = 0
	}
	horizon := now - from
	if horizon <= 0 {
		return nil, nil
	}
	grid, err := epoch.NewGrid(s.cfg.Epoch, horizon)
	if err != nil {
		return nil, err
	}
	prob := &grouping.Problem{D: grid.D, R: s.cfg.R, P: s.cfg.P}
	members := make(map[string]*tenant.Tenant, len(s.members))
	for _, m := range s.members {
		if _, overridden := s.router.Override(m.ID); overridden {
			continue // already moved out by a previous scaling action
		}
		members[m.ID] = m
		act := s.monitor.TenantActivity(m.ID).Shift(-from)
		prob.Items = append(prob.Items, &grouping.Item{
			ID:    m.ID,
			Nodes: m.Nodes,
			Spans: grid.Quantize(act),
		})
	}
	sol, err := grouping.TwoStep(prob)
	if err != nil {
		return nil, err
	}
	// The largest resulting group stays; everyone else is over-active.
	stay := 0
	for i := range sol.Groups {
		if len(sol.Groups[i].Items) > len(sol.Groups[stay].Items) {
			stay = i
		}
	}
	var over []*tenant.Tenant
	for gi := range sol.Groups {
		if gi == stay {
			continue
		}
		for _, idx := range sol.Groups[gi].Items {
			over = append(over, members[prob.Items[idx].ID])
		}
	}
	sort.Slice(over, func(i, j int) bool { return over[i].ID < over[j].ID })
	return over, nil
}

// identify runs over-active identification for a group below P and stages
// the scale-up it finds, or queues it in the triage when the pool cannot.
func (s *Scaler) identify(rtttp float64) {
	su := &scaleUp{ev: Event{Group: s.group, Detected: s.lc.Engine().Now(), RTTTP: rtttp}}
	over, err := s.IdentifyOverActive()
	if err != nil {
		su.ev.Err = err.Error()
		s.events = append(s.events, su.ev)
		s.publishFailure(err.Error())
		return
	}
	if len(over) == 0 {
		// Nothing identifiable (e.g. a one-off spike already over); record
		// nothing and let the next check re-evaluate.
		return
	}
	su.over = over
	for _, m := range over {
		su.ev.OverActive = append(su.ev.OverActive, m.ID)
		su.ev.Nodes = max(su.ev.Nodes, m.Nodes)
	}
	s.nextID++
	su.ev.MPPDB = fmt.Sprintf("%s-scale%d", s.group, s.nextID)
	if s.stage(su) == nil {
		s.start(su)
		return
	}
	s.waiting = su
	deficit, tenants := s.prio()
	s.triage.EnqueueNodes(su.ev.MPPDB, s.group, su.ev.MPPDB, su.ev.Nodes, deficit, tenants)
	s.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventTriageEnqueued,
		Group:  s.group,
		MPPDB:  su.ev.MPPDB,
		Value:  deficit * float64(tenants),
		Detail: fmt.Sprintf("pool exhausted; %d-node scale-up queued for triage (deficit %.4g × %d tenants)", su.ev.Nodes, deficit, tenants),
	})
}

// poll asks the triage for the waiting scale-up's nodes.
func (s *Scaler) poll() {
	su := s.waiting
	deficit, tenants := s.prio()
	if !s.triage.TryGrant(su.ev.MPPDB, deficit, tenants, func() error { return s.stage(su) }) {
		return
	}
	s.waiting = nil
	s.start(su)
}

// stage acquires the scale-up's nodes from the pool.
func (s *Scaler) stage(su *scaleUp) error {
	_, err := s.lc.Stage(su.ev.MPPDB, su.ev.Nodes, nil)
	return err
}

// start runs a staged scale-up: the new MPPDB starts and bulk loads the
// over-active tenants, then their queries are re-pointed to it.
func (s *Scaler) start(su *scaleUp) {
	id, nodes := su.ev.MPPDB, su.ev.Nodes
	s.scaling = true
	s.mActions.Inc()
	s.mActive.Add(1)
	s.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventScalingTriggered,
		Group:  s.group,
		MPPDB:  id,
		Value:  su.ev.RTTTP,
		Detail: fmt.Sprintf("over-active %v → %d-node MPPDB", su.ev.OverActive, nodes),
	})
	inst := mppdb.New(s.lc.Engine(), id, nodes)
	inst.SetGate(s.lc.Pool().Gate())
	inst.SetTelemetry(s.tel)
	inst.SetState(mppdb.Provisioning)
	var dataGB float64
	for _, m := range su.over {
		inst.DeployTenant(m.ID, m.DataGB)
		dataGB += m.DataGB
	}
	evIdx := len(s.events)
	s.events = append(s.events, su.ev)
	s.lc.Ready(id, nodes, dataGB, func(intact bool) {
		s.scaling = false
		s.mActive.Add(-1)
		ev := &s.events[evIdx]
		if !intact {
			s.lc.Abort(id)
			ev.Err = "staged nodes failed during the bulk load"
			s.publishFailure(fmt.Sprintf("%s aborted: %s", id, ev.Err))
			return
		}
		inst.SetState(mppdb.Ready)
		for _, m := range su.over {
			if err := s.router.SetOverride(m.ID, inst); err != nil {
				ev.Err = err.Error()
			}
		}
		ev.Ready = s.lc.Engine().Now()
		s.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventScalingReady,
			Group:  s.group,
			MPPDB:  id,
			Value:  float64(nodes),
			Detail: fmt.Sprintf("queries of %v re-pointed", ev.OverActive),
		})
	})
}

// publishFailure emits a scaling_failed event.
func (s *Scaler) publishFailure(detail string) {
	s.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventScalingFailed,
		Group:  s.group,
		Detail: detail,
	})
}
