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
	// Experiments that study steady-state behaviour use this; the elastic
	// scaling experiment does not.
	Immediate bool
	// ParallelLoad enables the MPPDB parallel loading option (§7.2).
	ParallelLoad bool
	// MonitorWindow is the RT-TTP window (default 24 h).
	MonitorWindow time.Duration
	// Recovery, when non-nil, arms an autonomous failure-recovery controller
	// (§4.4) per group with this config. The service path sets it; replay
	// arms controllers itself when failures are injected.
	Recovery *recovery.Config
	// Admission, when non-nil, arms an overload-protection controller per
	// group with this config: per-tenant contract buckets, a bounded
	// admission queue, and a brownout loop watching the group's live
	// RT-TTP and recovery state. Strictly opt-in so the bare replay path
	// stays byte-identical.
	Admission *admission.Config
	// Gray, when non-nil, arms a fail-slow detector per group with this
	// config: peer-relative completion-latency outlier detection and the
	// hedge → drain response ladder. The drain rung needs a recovery
	// controller, so a nil Recovery is auto-armed with recovery.DefaultConfig.
	// Strictly opt-in, like Admission.
	Gray *recovery.GrayConfig
	// NoSpread disables domain-aware spread placement. By default a group
	// deployed on a multi-domain pool lands its instances on ≥2 failure
	// domains when capacity allows (each instance whole within one domain,
	// siblings avoiding each other's); single-domain pools are unaffected,
	// so every pre-domain replay stays byte-identical.
	NoSpread bool
	// Triage arms the cluster-wide scarcity triage: one allocator per
	// deployment, shared by every group's recovery controller. On pool
	// exhaustion lifecycles queue ranked by SLA-at-risk (sliding RT-TTP
	// deficit × tenant count) instead of burning backoff cycles, and scarce
	// nodes go to the worst-off group first. Needs Recovery (or Gray, which
	// auto-arms it).
	Triage bool
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
	// instrumented subsystem is built. It reads the max over the per-group
	// domain mirrors, which is lock-free and therefore safe to call while
	// any single domain is held.
	engines := make([]*sim.Engine, len(plan.Groups))
	domains := make(sim.Domains, len(plan.Groups))
	for i := range plan.Groups {
		engines[i] = sim.NewEngine()
		domains[i] = sim.NewDomain(engines[i])
	}
	tel := telemetry.NewHub(domains, plan.Config.P)
	dep := &Deployment{
		pool:  m.pool,
		plane: runtime.NewPlane(tel),
		ready: make(map[string]sim.Time),
	}
	if m.opts.Triage {
		dep.triage = recovery.NewTriage(m.pool)
	}
	for gi, pg := range plan.Groups {
		g, readyAt, err := m.buildGroup(engines[gi], domains[gi], tel, dep.triage, pg, plan.Config.P, tenants)
		if err != nil {
			return nil, err
		}
		dep.plane.Add(g)
		dep.ready[pg.ID] = readyAt
	}
	return dep, nil
}

// buildGroup constructs one tenant-group on the given engine and domain:
// node acquisition (spread across failure domains on a multi-domain pool),
// MPPDB instances with every member bulk-loaded, provisioning delays
// (Table 5.1 startup + load) unless Immediate, monitor, router, and the
// optional recovery and admission controllers.
func (m *Master) buildGroup(eng *sim.Engine, dom *sim.Domain, tel *telemetry.Hub, tri *recovery.Triage,
	pg advisor.PlannedGroup, p float64, tenants map[string]*tenant.Tenant) (*DeployedGroup, sim.Time, error) {
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
	g := &DeployedGroup{Plan: pg, Members: members}
	// One interner per group, shared by every instance (and adopted by the
	// router and admission controller): tenant refs resolved once at the
	// front door stay valid across the whole group.
	interner := tenant.NewInterner()
	// On a multi-domain pool, spread the group's replicas: each instance
	// lands whole in one failure domain, siblings avoid the domains already
	// used, so the group survives losing any single domain when capacity
	// allows. Single-domain pools take the classic lowest-ID scan, keeping
	// pre-domain replays byte-identical.
	spread := m.pool.Domains() > 1 && !m.opts.NoSpread
	var usedDomains []int
	var readyAt sim.Time
	for i := 0; i < pg.Design.A; i++ {
		nodes, err := pg.Design.GroupNodes(i)
		if err != nil {
			return nil, 0, err
		}
		id := fmt.Sprintf("%s-db%d", pg.ID, i)
		if spread {
			_, doms, err := m.pool.AcquireSpread(id, nodes, usedDomains)
			if err != nil {
				return nil, 0, fmt.Errorf("master: group %s: %w", pg.ID, err)
			}
			usedDomains = append(usedDomains, doms...)
		} else if _, err := m.pool.Acquire(id, nodes); err != nil {
			return nil, 0, fmt.Errorf("master: group %s: %w", pg.ID, err)
		}
		inst := mppdb.NewInterned(eng, id, nodes, interner)
		inst.SetTelemetry(tel)
		for _, tn := range members {
			inst.DeployTenant(tn.ID, tn.DataGB)
		}
		if !m.opts.Immediate {
			inst.SetState(mppdb.Provisioning)
			delay := cluster.StartupTime(nodes) + cluster.LoadTime(groupGB, nodes, m.opts.ParallelLoad)
			at := eng.Now().Add(delay)
			if at > readyAt {
				readyAt = at
			}
			eng.After(delay, func(sim.Time) { inst.SetState(mppdb.Ready) })
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
	g.Bind(dom)
	g.SetTelemetry(tel)
	rcfg := m.opts.Recovery
	if rcfg == nil && m.opts.Gray != nil {
		// The gray ladder's drain rung executes through the crash controller;
		// arming Gray without Recovery implies the default crash config.
		def := recovery.DefaultConfig()
		rcfg = &def
	}
	if rcfg != nil {
		rc, err := recovery.New(eng, m.pool, pg.ID, g.Instances, *rcfg)
		if err != nil {
			return nil, 0, err
		}
		rc.SetTelemetry(tel)
		if tri != nil {
			// SLA-at-risk priority for the scarcity triage ladder: sliding
			// RT-TTP deficit below the guarantee × the group's blast radius.
			rc.SetTriage(tri, func() (float64, int) {
				d := p - mon.RTTTP()
				if d < 0 {
					d = 0
				}
				return d, len(members)
			})
		}
		if m.pool.Domains() > 1 {
			// Lets the controller pull a fully-dead instance out of routing
			// during a domain outage and re-admit it once repaired.
			rc.SetQuarantine(rt.SetQuarantine)
		}
		if spread {
			rc.SetRespread(m.opts.ParallelLoad)
		}
		rc.Start()
		g.Recovery = rc
	}
	if m.opts.Gray != nil {
		gd, err := recovery.NewGrayDetector(eng, m.pool, pg.ID, g.Instances, rt, g.Recovery, *m.opts.Gray)
		if err != nil {
			return nil, 0, err
		}
		gd.SetTelemetry(tel)
		gd.Start()
		g.Gray = gd
	}
	if m.opts.Admission != nil {
		ac, err := admission.New(eng, pg.ID, p, pg.TenantIDs,
			g.Instances, mon, g.Recovery, *m.opts.Admission)
		if err != nil {
			return nil, 0, err
		}
		ac.SetTelemetry(tel)
		ac.AdoptInterner(interner)
		grt := g
		ac.OnLevelChange(func(level int) {
			grt.SetSheddingOnly(level >= admission.LevelShedBestEffort)
		})
		ac.OnTick(grt.CacheStats)
		ac.Start()
		g.Admission = ac
	}
	return g, readyAt, nil
}

// Groups returns the deployed tenant-groups.
func (d *Deployment) Groups() []*DeployedGroup { return d.plane.Groups() }

// Plane returns the deployment's runtime plane (groups, tenant index, clock
// domains).
func (d *Deployment) Plane() *runtime.Plane { return d.plane }

// Triage returns the cluster-wide scarcity allocator (nil unless deployed
// with Options.Triage).
func (d *Deployment) Triage() *recovery.Triage { return d.triage }

// Telemetry returns the deployment's telemetry hub (never nil after Deploy).
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

// Pool returns the deployment's node pool (the elastic scaler draws
// replacement and scale-up nodes from it).
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
