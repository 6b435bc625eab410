// Package scaling implements Thrifty's lightweight elastic scaling (thesis
// §5.1). When a tenant-group's run-time TTP over the trailing 24-hour window
// drops below the performance SLA guarantee P, the scaler identifies the
// over-active tenant(s) — the ones whose recent activity no longer fits the
// group under the grouping algorithm — provisions a new MPPDB sized for just
// those tenants, bulk loads only their data (the lightweight part: loading a
// tenant's 400 GB takes ≈5000 s with parallel loading, versus many hours for
// the whole group), and re-points their queries to the new instance. The
// scaler decides when and for whom; the group's cluster.Lifecycle stages
// the nodes and prices the start-up plus load, and a scale-up whose staged
// nodes fail mid-load is aborted like any other (scaling_failed; the group
// may scale again on a later check).
//
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
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// Config controls the scaler.
type Config struct {
	// P is the performance SLA guarantee (fraction, e.g. 0.999).
	P float64
	// R is the replication factor used by over-active identification.
	R int
	// CheckInterval is how often RT-TTP is evaluated.
	CheckInterval time.Duration
	// Window is the RT-TTP window (must match the monitors'; 24 h in the
	// thesis).
	Window time.Duration
	// Epoch is the epoch width for over-active identification.
	Epoch sim.Time
}

// DefaultConfig returns the thesis' settings.
func DefaultConfig(p float64, r int) Config {
	return Config{
		P:             p,
		R:             r,
		CheckInterval: 10 * time.Minute,
		Window:        24 * time.Hour,
		Epoch:         3 * sim.Second,
	}
}

// Target is one tenant-group under the scaler's watch.
type Target struct {
	Router  *router.GroupRouter
	Monitor *monitor.GroupMonitor
	Members []*tenant.Tenant
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
	// Err is non-empty when the action failed (e.g. node pool exhausted).
	Err string
}

// Scaler watches tenant-groups and reacts to RT-TTP drops.
type Scaler struct {
	eng *sim.Engine
	lc  *cluster.Lifecycle
	cfg Config

	targets  []*Target
	scaling  map[string]bool // group currently provisioning
	disabled map[string]bool // administrator override (§6)
	reconsol map[string]bool // groups flagged for re-consolidation
	events   []Event
	nextID   int
	started  bool

	// Telemetry (optional): RT-TTP gauges sampled at every check, dip events
	// on the below-P transition, and the scaling-phase event timeline.
	tel      *telemetry.Hub
	belowP   map[string]bool
	mActions *telemetry.Counter
	mActive  *telemetry.Gauge
}

// New creates a scaler on its group's lifecycle.
func New(lc *cluster.Lifecycle, cfg Config) (*Scaler, error) {
	if cfg.P <= 0 || cfg.P > 1 {
		return nil, fmt.Errorf("scaling: P=%v", cfg.P)
	}
	if cfg.R < 1 {
		return nil, fmt.Errorf("scaling: R=%d", cfg.R)
	}
	if cfg.CheckInterval <= 0 || cfg.Window <= 0 || cfg.Epoch <= 0 {
		return nil, fmt.Errorf("scaling: non-positive intervals in %+v", cfg)
	}
	return &Scaler{
		eng:      lc.Engine(),
		lc:       lc,
		cfg:      cfg,
		scaling:  make(map[string]bool),
		disabled: make(map[string]bool),
		reconsol: make(map[string]bool),
	}, nil
}

// SetTelemetry attaches a telemetry hub. A nil hub disables instrumentation.
func (s *Scaler) SetTelemetry(h *telemetry.Hub) {
	s.tel = h
	if h == nil {
		return
	}
	s.belowP = make(map[string]bool)
	s.mActions = h.Registry.Counter("thrifty_scaling_actions_total")
	s.mActive = h.Registry.Gauge("thrifty_scaling_in_progress")
}

// Watch adds a tenant-group to the scaler.
func (s *Scaler) Watch(t *Target) { s.targets = append(s.targets, t) }

// Disable suppresses automatic scaling for a group — the §6 manual-tuning
// path where the administrator instead raises U on the tuning MPPDB.
func (s *Scaler) Disable(group string) { s.disabled[group] = true }

// Enable re-enables automatic scaling for a group.
func (s *Scaler) Enable(group string) { delete(s.disabled, group) }

// Events returns all scaling actions so far.
func (s *Scaler) Events() []Event { return s.events }

// ReconsolidationList returns the groups flagged for the next
// (re)-consolidation cycle, sorted.
func (s *Scaler) ReconsolidationList() []string {
	out := make([]string, 0, len(s.reconsol))
	for g := range s.reconsol {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Start schedules the periodic RT-TTP checks, as shared events (as is a
// scale-up's ready): a check may acquire nodes from the pool.
func (s *Scaler) Start() {
	if s.started {
		return
	}
	s.started = true
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		s.check()
		s.eng.AfterShared(s.cfg.CheckInterval, tick)
	}
	s.eng.AfterShared(s.cfg.CheckInterval, tick)
}

// check evaluates every watched group once.
func (s *Scaler) check() {
	for _, t := range s.targets {
		g := t.Router.Group()
		rt := t.Monitor.RTTTP()
		if s.tel != nil {
			s.tel.Registry.Gauge("thrifty_group_rt_ttp", "group", g).Set(rt)
			// Publish the dip once per crossing, not on every low sample.
			below := rt < s.cfg.P
			if below && !s.belowP[g] {
				s.tel.Events.Publish(telemetry.Event{
					Type:   telemetry.EventRTTTPDip,
					Group:  g,
					Value:  rt,
					Detail: fmt.Sprintf("RT-TTP below P=%v", s.cfg.P),
				})
			}
			s.belowP[g] = below
		}
		if s.scaling[g] || s.disabled[g] {
			continue
		}
		if rt >= s.cfg.P {
			continue
		}
		s.scaleUp(t, rt)
	}
}

// IdentifyOverActive runs the over-active-tenant-identification algorithm
// (§5.1): the tenant-grouping algorithm applied to just this group's tenants
// using their *observed* activity of the trailing window. Tenants that no
// longer fit into the group's main tenant-group are over-active.
func (s *Scaler) IdentifyOverActive(t *Target) ([]*tenant.Tenant, error) {
	now := s.eng.Now()
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
	members := make(map[string]*tenant.Tenant, len(t.Members))
	for _, m := range t.Members {
		if _, overridden := t.Router.Override(m.ID); overridden {
			continue // already moved out by a previous scaling action
		}
		members[m.ID] = m
		act := t.Monitor.TenantActivity(m.ID).Shift(-from)
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

// scaleUp performs one lightweight scaling action for the group.
func (s *Scaler) scaleUp(t *Target, rtttp float64) {
	g := t.Router.Group()
	ev := Event{Group: g, Detected: s.eng.Now(), RTTTP: rtttp}
	over, err := s.IdentifyOverActive(t)
	if err != nil {
		ev.Err = err.Error()
		s.events = append(s.events, ev)
		s.publishFailure(g, err.Error())
		return
	}
	if len(over) == 0 {
		// Nothing identifiable (e.g. a one-off spike already over); record
		// nothing and let the next check re-evaluate.
		return
	}
	nodes := 0
	var dataGB float64
	for _, m := range over {
		ev.OverActive = append(ev.OverActive, m.ID)
		if m.Nodes > nodes {
			nodes = m.Nodes
		}
		dataGB += m.DataGB
	}
	s.nextID++
	id := fmt.Sprintf("%s-scale%d", g, s.nextID)
	if _, err := s.lc.Stage(id, nodes, nil); err != nil {
		ev.Err = err.Error()
		s.events = append(s.events, ev)
		s.publishFailure(g, err.Error())
		return
	}
	s.scaling[g] = true
	if s.tel != nil {
		s.mActions.Inc()
		s.mActive.Add(1)
		s.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventScalingTriggered,
			Group:  g,
			MPPDB:  id,
			Value:  rtttp,
			Detail: fmt.Sprintf("over-active %v → %d-node MPPDB", ev.OverActive, nodes),
		})
	}
	inst := mppdb.New(s.eng, id, nodes)
	inst.SetGate(s.lc.Pool().Gate())
	inst.SetTelemetry(s.tel)
	inst.SetState(mppdb.Provisioning)
	for _, m := range over {
		inst.DeployTenant(m.ID, m.DataGB)
	}
	ev.MPPDB = id
	ev.Nodes = nodes
	evIdx := len(s.events)
	s.events = append(s.events, ev)
	s.lc.Ready(id, nodes, dataGB, func(intact bool) {
		s.scaling[g] = false
		if s.tel != nil {
			s.mActive.Add(-1)
		}
		if !intact {
			s.lc.Abort(id)
			s.events[evIdx].Err = "staged nodes failed during the bulk load"
			s.publishFailure(g, fmt.Sprintf("%s aborted: %s", id, s.events[evIdx].Err))
			return
		}
		inst.SetState(mppdb.Ready)
		for _, m := range over {
			if err := t.Router.SetOverride(m.ID, inst); err != nil {
				s.events[evIdx].Err = err.Error()
			}
		}
		s.events[evIdx].Ready = s.eng.Now()
		s.reconsol[g] = true
		if s.tel != nil {
			s.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventScalingReady,
				Group:  g,
				MPPDB:  id,
				Value:  float64(nodes),
				Detail: fmt.Sprintf("queries of %v re-pointed", s.events[evIdx].OverActive),
			})
		}
	})
}

// publishFailure emits a scaling_failed event when telemetry is attached.
func (s *Scaler) publishFailure(group, detail string) {
	if s.tel == nil {
		return
	}
	s.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventScalingFailed,
		Group:  group,
		Detail: detail,
	})
}
