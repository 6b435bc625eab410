// Package master implements the Deployment Master (thesis §3c): it executes
// a deployment plan on the shared cluster — acquiring machine nodes,
// starting the MPPDB instances of every tenant-group, bulk loading every
// member tenant onto each of its group's A MPPDBs, and keeping unused nodes
// hibernated. The resulting Deployment bundles the per-group runtimes
// (router, activity monitor, clock domain) the run-time side operates on.
//
// Every group is built on an engine and clock domain of its own (see
// internal/sim's domain documentation): the service advances groups in
// parallel, and replay drives them all in one deterministic order.
package master

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/recovery"
	"repro/internal/router"
	"repro/internal/runtime"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// Options controls plan execution.
type Options struct {
	// SpareNodes is how many nodes beyond the plan NewPool provisions (for
	// elastic scaling and node replacement).
	SpareNodes int
	// Domains is how many failure domains (racks/zones that fail together)
	// NewPool splits the pool into. Values ≤1 keep the classic single-domain
	// pool — the layout every byte-deterministic replay pins.
	Domains int
	// Immediate skips provisioning delays: instances are Ready at once.
	// Experiments that study steady-state behaviour use this, the
	// elastic-scaling experiment (Fig 7.7) included: its scale-ups still pay
	// Table 5.1.
	Immediate bool
	// ParallelLoad enables the MPPDB parallel loading option (§7.2) for
	// every load the groups' lifecycles price: deploy, crash reload,
	// re-spread and scale-up.
	ParallelLoad bool
	// MonitorWindow is the RT-TTP window (default 24 h).
	MonitorWindow time.Duration
	// Admission, when non-nil, arms an overload-protection controller per
	// group with this config: per-tenant contract buckets and a brownout
	// loop watching the group's live RT-TTP and recovery state. Strictly
	// opt-in so the bare replay path stays byte-identical.
	Admission *admission.Config
	// Scaling arms the §5.1 elastic scaler per group, on the plan's P, R and
	// epoch and MonitorWindow. Strictly opt-in, like Admission.
	Scaling bool
	// NoSpread disables domain-aware spread placement. By default a group
	// deployed on a multi-domain pool lands its instances on ≥2 failure
	// domains when capacity allows (each instance whole within one domain,
	// siblings avoiding each other's); single-domain pools are unaffected,
	// so every pre-domain replay stays byte-identical.
	NoSpread bool
}

// NewPool returns the node pool the options ask for under a plan: the plan's
// nodes plus SpareNodes, striped over Domains failure domains.
func (o Options) NewPool(plan *advisor.Plan) *cluster.Pool {
	return cluster.NewPoolDomains(plan.NodesUsed()+o.SpareNodes, o.Domains)
}

// DeployedGroup is one tenant-group brought up on the cluster.
type DeployedGroup = runtime.GroupRuntime

// Deployment is a live MPPDBaaS deployment. Deploy builds it whole; its
// groups, tenant index and readiness times do not change afterwards.
type Deployment struct {
	pool   *cluster.Pool
	plane  *runtime.Plane
	triage *recovery.Triage
	cfg    advisor.Config
	ready  map[string]sim.Time
}

// Master executes deployment plans.
type Master struct {
	pool *cluster.Pool
	opts Options
}

// New creates a master over the node pool.
func New(pool *cluster.Pool, opts Options) *Master {
	if opts.MonitorWindow <= 0 {
		opts.MonitorWindow = 24 * time.Hour
	}
	return &Master{pool: pool, opts: opts}
}

// Deploy brings a plan up. tenants must contain every tenant referenced by
// the plan's groups.
func (m *Master) Deploy(plan *advisor.Plan, tenants map[string]*tenant.Tenant) (*Deployment, error) {
	// Clock domains first: the telemetry hub needs its clock before any
	// instrumented subsystem is built. The root hub reads the max over the
	// per-group domain mirrors, which is lock-free and therefore safe to call
	// while any single domain is held; each group writes through a view.
	engines := make([]*sim.Engine, len(plan.Groups))
	for i := range plan.Groups {
		engines[i] = sim.NewEngine()
	}
	domains := sim.NewDomains(engines)
	tel := telemetry.NewHub(domains, plan.Config.P)
	tel.Guard(domains.Gate())
	m.pool.SetGate(domains.Gate())
	dep := &Deployment{
		pool:   m.pool,
		triage: recovery.NewTriage(m.pool),
		plane:  runtime.NewPlane(tel),
		cfg:    plan.Config,
		ready:  make(map[string]sim.Time),
	}
	for gi, pg := range plan.Groups {
		g, readyAt, err := m.buildGroup(engines[gi], domains[gi], tel.View(domains[gi]), dep, pg, tenants)
		if err != nil {
			return nil, err
		}
		dep.plane.Add(g)
		dep.ready[pg.ID] = readyAt
	}
	return dep, nil
}

// buildGroup constructs one tenant-group on the given engine, domain and view:
// its lifecycle stages every instance's nodes (spread across failure domains
// on a multi-domain pool) and, unless Immediate, makes each Ready after
// Table 5.1 startup + load; then the MPPDB instances with every member
// bulk-loaded, monitor, router, the recovery controller and the optional
// admission controller and scaler.
func (m *Master) buildGroup(eng *sim.Engine, dom *sim.Domain, tel *telemetry.Hub, dep *Deployment,
	pg advisor.PlannedGroup, tenants map[string]*tenant.Tenant) (*DeployedGroup, sim.Time, error) {
	members := make([]*tenant.Tenant, 0, len(pg.TenantIDs))
	var groupGB float64
	for _, id := range pg.TenantIDs {
		tn, ok := tenants[id]
		if !ok {
			return nil, 0, fmt.Errorf("master: plan references unknown tenant %s", id)
		}
		members = append(members, tn)
		groupGB += tn.DataGB
	}
	lc := cluster.NewLifecycle(eng, m.pool, m.opts.ParallelLoad, !m.opts.NoSpread)
	g := &DeployedGroup{Plan: pg, Members: members, Lifecycle: lc}
	// One interner per group, shared by every instance (and taken by the
	// router and admission controller): tenant refs resolved once at the
	// front door stay valid across the whole group.
	interner := tenant.NewInterner()
	// On a multi-domain pool the lifecycle spreads the group's replicas: each
	// instance lands whole in one failure domain, siblings avoid the domains
	// already used, so the group survives losing any single domain when
	// capacity allows.
	var usedDomains []int
	var readyAt sim.Time
	for i := 0; i < pg.Design.A; i++ {
		nodes, err := pg.Design.GroupNodes(i)
		if err != nil {
			return nil, 0, err
		}
		id := fmt.Sprintf("%s-db%d", pg.ID, i)
		doms, err := lc.Stage(id, nodes, usedDomains)
		if err != nil {
			return nil, 0, fmt.Errorf("master: group %s: %w", pg.ID, err)
		}
		usedDomains = append(usedDomains, doms...)
		inst := mppdb.NewInterned(eng, id, nodes, interner)
		inst.SetGate(m.pool.Gate())
		inst.SetTelemetry(tel)
		for _, tn := range members {
			inst.DeployTenant(tn.ID, tn.DataGB)
		}
		if !m.opts.Immediate {
			inst.SetState(mppdb.Provisioning)
			delay := lc.Ready(id, nodes, groupGB, func(bool) { inst.SetState(mppdb.Ready) })
			readyAt = max(readyAt, eng.Now().Add(delay))
		}
		g.Instances = append(g.Instances, inst)
	}
	mon, err := monitor.NewGroup(eng, pg.ID, pg.Design.A, m.opts.MonitorWindow)
	if err != nil {
		return nil, 0, err
	}
	rt, err := router.NewGroup(eng, pg.ID, g.Instances, members, mon)
	if err != nil {
		return nil, 0, err
	}
	mon.SetTelemetry(tel)
	rt.SetTelemetry(tel)
	g.Monitor = mon
	g.Router = rt
	g.Bind(dom, tel)
	// Every group gets its §4.4 recovery controller. Its claims rank in the
	// deployment's scarcity triage by sliding RT-TTP deficit below P × member
	// count, as the scaler's do; it lifts the routing quarantine a domain
	// outage puts on an instance once the instance is whole again; and it
	// re-spreads the group when its lifecycle spreads. It schedules nothing
	// until a fault calls Detect, unless the group landed collapsed. Every
	// controller is armed when its constructor returns.
	prio := func() (float64, int) { return max(dep.cfg.P-mon.RTTTP(), 0), len(members) }
	if g.Recovery, err = recovery.New(lc, dep.triage, tel, pg.ID, g.Instances, prio, rt.SetQuarantine); err != nil {
		return nil, 0, err
	}
	if m.opts.Admission != nil {
		if g.Admission, err = admission.New(eng, tel, interner, pg.ID, dep.cfg.P, pg.TenantIDs,
			g.Instances, mon, g.Recovery, *m.opts.Admission,
			func(level int) { g.SetSheddingOnly(level >= admission.LevelShedBestEffort) },
			g.CacheStats); err != nil {
			return nil, 0, err
		}
	}
	if m.opts.Scaling {
		scfg := scaling.Config{P: dep.cfg.P, R: dep.cfg.R, Window: m.opts.MonitorWindow, Epoch: dep.cfg.Epoch}
		if g.Scaler, err = scaling.New(lc, dep.triage, tel, rt, mon, members, scfg, prio); err != nil {
			return nil, 0, err
		}
	}
	return g, readyAt, nil
}

// Groups returns the deployed tenant-groups.
func (d *Deployment) Groups() []*DeployedGroup { return d.plane.Groups() }

// Plane returns the deployment's runtime plane (groups, tenant index, clock
// domains).
func (d *Deployment) Plane() *runtime.Plane { return d.plane }

// Triage returns the cluster-wide scarcity allocator.
func (d *Deployment) Triage() *recovery.Triage { return d.triage }

// Telemetry returns the deployment's root telemetry hub (never nil after
// Deploy); a group's events write through its view (DeployedGroup.Telemetry).
func (d *Deployment) Telemetry() *telemetry.Hub { return d.plane.Hub() }

// GroupFor returns the group hosting the tenant.
func (d *Deployment) GroupFor(tenantID string) (*DeployedGroup, bool) {
	return d.plane.ForTenant(tenantID)
}

// ReadyAt returns when a group's provisioning completes (zero when deployed
// with Options.Immediate).
func (d *Deployment) ReadyAt(groupID string) sim.Time {
	return d.ready[groupID]
}

// NodesUsed returns the number of active nodes in the pool.
func (d *Deployment) NodesUsed() int { return d.pool.CountState(cluster.Active) }

// Pool returns the deployment's node pool (recovery and the elastic scaler
// draw replacement and scale-up nodes from it).
func (d *Deployment) Pool() *cluster.Pool { return d.pool }

// Tenants returns the deployed tenant index.
func (d *Deployment) Tenants() map[string]*tenant.Tenant {
	out := make(map[string]*tenant.Tenant)
	for _, g := range d.plane.Groups() {
		for _, tn := range g.Members {
			out[tn.ID] = tn
		}
	}
	return out
}

// Records returns all completed query records across groups, in deployment
// group order.
func (d *Deployment) Records() []monitor.QueryRecord { return d.plane.Records() }
