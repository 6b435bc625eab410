// Package replay drives a live deployment with recorded tenant logs: it
// streams the query submissions of a time window (workload.Stream), routes
// each through the deployment's per-group routers at its logged time (open
// loop), samples run-time statistics, and drains. This is the run-time half
// of the evaluation testbed: Run is the one arrival → sample → drain loop, on
// either clock layout, and every run-time experiment — §7.5 elastic scaling,
// the SLA-attainment validation, the fault harnesses of recovery/chaos, the
// drift scenario — schedules its own perturbation on the engine and calls it.
package replay

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// TakeOver reproduces the §7.5 intervention: "we manually took over a tenant
// at time Y and continuously submitted queries to the system on behalf of
// that tenant".
type TakeOver struct {
	// Tenant to take over.
	Tenant string
	// Start of the continuous submission.
	Start sim.Time
	// Interval between submissions (continuous = shorter than the query
	// latency).
	Interval time.Duration
	// ClassID of the query to hammer with.
	ClassID string
}

// Failure injects a node failure (§4.4): at At, one node of the group's
// MPPDB fails (at the instance and, when the pool holds an active node for
// it, at the pool too). The MPPDB stays online with degraded throughput;
// detection and repair are autonomous — the group's recovery.Controller
// notices the failure on its next heartbeat, swaps the node at the pool,
// prices replacement startup plus the Table 5.1 bulk reload, and restores
// full speed. Scripted and service-path recovery share that one code path.
type Failure struct {
	// At is the failure instant.
	At sim.Time
	// Group identifies the tenant-group.
	Group string
	// Instance indexes the group's MPPDBs (0 = the tuning MPPDB G₀).
	Instance int
}

// Options configures a replay run.
type Options struct {
	// From and To bound the replayed window.
	From, To sim.Time
	// EnableScaling arms the lightweight elastic scaler.
	EnableScaling bool
	// ScalerConfig parameterizes the scaler when enabled.
	ScalerConfig scaling.Config
	// SampleEvery sets the statistics sampling period (default 10 min).
	SampleEvery time.Duration
	// TakeOver, when non-nil, injects the §7.5 over-activity.
	TakeOver *TakeOver
	// Failures injects node failures.
	Failures []Failure
	// Recovery overrides the recovery controllers' config when failures are
	// injected (default recovery.DefaultConfig).
	Recovery *recovery.Config
	// DrainSlack extends the post-window drain that lets in-flight queries —
	// and, with failures, recoveries and re-images — settle (default one
	// day). Long reloads of data-heavy groups can need more.
	DrainSlack time.Duration
	// Submit, when non-nil, submits each replayed arrival to its resolved
	// group instead of the group's router alone: the storm harnesses put
	// admission or an SLO slack in front of the router here. On a sharded
	// deployment it is called from every group's goroutine.
	Submit SubmitFunc
}

// drainUntil returns the absolute end of the post-window drain.
func (o Options) drainUntil() sim.Time {
	if o.DrainSlack > 0 {
		return o.To.Add(o.DrainSlack)
	}
	return o.To + sim.Day
}

// FailureEvent records an injected failure's lifecycle.
type FailureEvent struct {
	Failure
	// MPPDB is the degraded instance's ID, filled at injection.
	MPPDB string
	// Node is the pool node failed alongside the instance, -1 when the pool
	// held no active node for it.
	Node int
	// RepairedAt is when autonomous recovery restored full speed (zero when
	// recovery had not completed by the end of the drain).
	RepairedAt sim.Time
	// Err is non-empty when the injection could not be applied.
	Err string
}

// Sample is one point of a group's run-time timeline.
type Sample struct {
	At     sim.Time
	RTTTP  float64
	Active int
}

// Report is the outcome of a replay.
type Report struct {
	// Samples holds each group's timeline.
	Samples map[string][]Sample
	// Records are all completed queries.
	Records []monitor.QueryRecord
	// ScalingEvents are the elastic-scaling actions taken (empty when
	// scaling is disabled).
	ScalingEvents []scaling.Event
	// FailureEvents are the injected node failures and their repairs.
	FailureEvents []FailureEvent
	// RecoveryEvents are the controllers' recovery lifecycles (empty when no
	// failures were injected), in deployment group order.
	RecoveryEvents []recovery.Event
	Counts
}

// Counts tallies routing attempts and the ones that failed.
type Counts struct {
	Submitted    int
	SubmitErrors int
}

// SLAAttainment returns the fraction of completed queries that met their
// latency SLA.
func (r *Report) SLAAttainment() float64 {
	if len(r.Records) == 0 {
		return 1
	}
	met := 0
	for _, rec := range r.Records {
		if rec.SLAMet() {
			met++
		}
	}
	return float64(met) / float64(len(r.Records))
}

// WorstRTTTP returns the lowest RT-TTP sampled in any group.
func (r *Report) WorstRTTTP() float64 {
	min := 1.0
	for group := range r.Samples {
		if m := r.MinRTTTP(group); m < min {
			min = m
		}
	}
	return min
}

// MinRTTTP returns the lowest sampled RT-TTP of the group.
func (r *Report) MinRTTTP(group string) float64 {
	min := 1.0
	for _, s := range r.Samples[group] {
		if s.RTTTP < min {
			min = s.RTTTP
		}
	}
	return min
}

// SubmitFunc submits one replayed arrival to g, the group its tenant is
// indexed to, under ref, the tenant's ref in g. It runs inside the engine
// event of the arrival's logged time, on the goroutine driving that engine.
type SubmitFunc func(a workload.Arrival, g *master.DeployedGroup, ref tenant.Ref) error

// route is the default SubmitFunc: the arrival goes to the group's router
// with its SLATarget — as logged, the before-consolidation latency — as the
// SLA target. Master interns every group, so a NoRef is a tenant its router
// does not hold, and SubmitRef reports it.
func route(a workload.Arrival, g *master.DeployedGroup, ref tenant.Ref) error {
	_, err := g.Router.SubmitRef(ref, a.Class, a.SLATarget)
	return err
}

// resolved is one log's tenant as the plane's index held it at generation
// gen.
type resolved struct {
	g   *master.DeployedGroup
	ref tenant.Ref
	gen uint64
}

// Attach streams the logs' query events in [from, to) into the engine, each
// resolved to its tenant's group and submitted through submit (nil: the
// group's router) at its logged time, counting into tally; a tenant the plane
// does not index counts as a submit error. It is the one arrival loop of the
// tree: Run attaches the replayed population through it, and a caller with
// traffic on a window of its own (the drift experiment's joiners and
// leavers) attaches that before calling Run.
//
// A tenant is looked up in the plane again only when the plane's index has
// moved since its last lookup — the online control loop may live-migrate it
// mid-window — so a static deployment hashes each tenant's ID once. The
// cache, one slot per log, belongs to this stream's driver goroutine; misses
// are not cached.
func Attach(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog, logs []*workload.TenantLog,
	from, to sim.Time, submit SubmitFunc, tally *Counts) error {
	arrivals, err := workload.NewStream(cat, logs, from, to)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if submit == nil {
		submit = route
	}
	plane := dep.Plane()
	routes := make([]resolved, len(logs))
	arrivals.Drive(eng, func(a workload.Arrival) {
		tally.Submitted++
		r := &routes[a.Log]
		if gen := plane.Generation(); r.g == nil || r.gen != gen {
			g, ref, ok := plane.ForTenantRef(a.Tenant)
			if !ok {
				tally.SubmitErrors++
				return
			}
			*r = resolved{g: g, ref: ref, gen: gen}
		}
		if submit(a, r.g, r.ref) != nil {
			tally.SubmitErrors++
		}
	})
	return nil
}

// Run replays the logs' query events in [From, To) against the deployment and
// runs it to the end of the window plus the drain. Tenants in the logs that
// are not deployed (e.g. excluded ones) are skipped.
//
// A shared deployment is driven on eng, one globally ordered event sequence,
// byte-identical per seed. A sharded one ignores eng (it may be nil) and
// drives every tenant-group's clock domain in its own goroutine: groups share
// nothing at query time (§3–§5), so each group's records, samples and scaling
// events are identical run to run (and, with scaling disabled, identical to a
// shared run of the same seed), and the merged Records are deterministic too
// — stable-sorted by submit time, deployment group order breaking ties. Only
// cross-group telemetry ordering is best-effort under parallelism: event and
// span sequence numbers, and the timestamps of general spans, which read the
// hub's furthest-ahead clock (query spans carry their own group's clock).
func Run(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, opts Options) (*Report, error) {
	if opts.To <= opts.From {
		return nil, fmt.Errorf("replay: window [%v,%v)", opts.From, opts.To)
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 10 * time.Minute
	}
	d := &driver{dep: dep, cat: cat, opts: opts}
	if to := opts.TakeOver; to != nil {
		var ok bool
		if d.takeOver, ok = cat.ByID(to.ClassID); !ok {
			return nil, fmt.Errorf("replay: unknown take-over class %s", to.ClassID)
		}
		if _, ok := dep.GroupFor(to.Tenant); !ok {
			return nil, fmt.Errorf("replay: take-over tenant %s not deployed", to.Tenant)
		}
	}
	d.fails = make([]FailureEvent, len(opts.Failures))
	for fi, f := range opts.Failures {
		d.fails[fi] = FailureEvent{Failure: f, Node: -1}
		if _, ok := dep.Plane().GroupByID(f.Group); !ok {
			d.fails[fi].Err = fmt.Sprintf("no group %q", f.Group)
		}
	}

	var parts []*part
	if dep.Sharded() {
		groups := dep.Groups()
		parts = make([]*part, len(groups))
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			wg.Add(1)
			go func(i int, g *master.DeployedGroup) {
				defer wg.Done()
				// Everything is scheduled under the domain, then the domain is
				// advanced through the window; callbacks run while it is held.
				dom := g.Domain()
				dom.Do(func(eng *sim.Engine) { parts[i], errs[i] = d.schedule(eng, logs, g) })
				if errs[i] == nil {
					dom.Advance(opts.To, nil)
					dom.Advance(opts.drainUntil(), nil)
				}
			}(i, g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		if eng == nil {
			return nil, fmt.Errorf("replay: a shared deployment needs its engine")
		}
		p, err := d.schedule(eng, logs, nil)
		if err != nil {
			return nil, err
		}
		// Driven directly, not through Domain.Advance: a single driver owns
		// the engine, and the domain's per-event clock mirror would be paid
		// on every replayed query.
		eng.Run(opts.To)
		eng.Run(opts.drainUntil())
		parts = []*part{p}
	}

	rep := &Report{Samples: make(map[string][]Sample), FailureEvents: d.fails, Records: dep.Records()}
	for _, p := range parts {
		for id, samples := range p.samples {
			rep.Samples[id] = samples
		}
		rep.Submitted += p.Submitted
		rep.SubmitErrors += p.SubmitErrors
		if p.scaler != nil {
			rep.ScalingEvents = append(rep.ScalingEvents, p.scaler.Events()...)
		}
		for _, rc := range p.controllers {
			rep.RecoveryEvents = append(rep.RecoveryEvents, rc.Events()...)
		}
	}
	fillRepairs(rep.FailureEvents, rep.RecoveryEvents)
	if dep.Sharded() {
		// Per-group sequences are already deterministic; a stable sort by
		// submit time (group order breaking ties) yields one canonical order.
		sort.SliceStable(rep.Records, func(i, j int) bool {
			return rep.Records[i].Submit < rep.Records[j].Submit
		})
	}
	return rep, nil
}

// driver is what every engine's share of one replay has in common.
type driver struct {
	dep      *master.Deployment
	cat      *queries.Catalog
	opts     Options
	takeOver *queries.Class
	// fails has one slot per Options.Failures entry; a slot is written only
	// by the part driving the failure's group.
	fails []FailureEvent
}

// part is one engine's share of a replay, written only by the goroutine
// driving that engine.
type part struct {
	Counts
	samples     map[string][]Sample
	scaler      *scaling.Scaler
	controllers []*recovery.Controller
}

// schedule puts one engine's share of the replay on eng — arrivals, take-over,
// failures, sampling, scaling — for the caller to run through the window and
// the drain. With only nil, eng is the shared engine of every group of the
// deployment (read live, so a group the online loop deploys mid-window is
// sampled from then on); otherwise it is only's private engine and the caller
// holds its domain, so callbacks use the group's raw subsystems and never
// re-enter locked GroupRuntime methods.
func (d *driver) schedule(eng *sim.Engine, logs []*workload.TenantLog, only *master.DeployedGroup) (*part, error) {
	dep, opts := d.dep, d.opts
	if eng.Now() > opts.From {
		return nil, fmt.Errorf("replay: engine already at %v, window starts %v", eng.Now(), opts.From)
	}
	groups := dep.Groups
	if only != nil {
		one := []*master.DeployedGroup{only}
		groups = func() []*master.DeployedGroup { return one }
	}
	mine := func(tenantID string) bool {
		g, ok := dep.GroupFor(tenantID)
		return ok && (only == nil || g == only)
	}
	p := &part{samples: make(map[string][]Sample)}

	var deployed []*workload.TenantLog
	for _, tl := range logs {
		if mine(tl.Tenant.ID) {
			deployed = append(deployed, tl)
		}
	}
	if err := Attach(eng, dep, d.cat, deployed, opts.From, opts.To, opts.Submit, &p.Counts); err != nil {
		return nil, err
	}

	// Take-over injection. The interval is a floor, not an open-loop rate:
	// a new query is only submitted once the previous one finishes — the
	// paper's tester "continuously submitted queries" one after another
	// (§7.5). An open loop with an interval under the query latency would
	// grow an unbounded queue, which no real client does, and the victim's
	// self-inflicted slowdown would drown the group's numbers.
	if to := opts.TakeOver; to != nil && mine(to.Tenant) {
		group, _ := dep.GroupFor(to.Tenant)
		eng.Schedule(to.Start, func(sim.Time) {
			if h := dep.Telemetry(); h != nil {
				h.Events.Publish(telemetry.Event{
					Type:   telemetry.EventTakeOver,
					Group:  group.Plan.ID,
					Tenant: to.Tenant,
					Detail: fmt.Sprintf("continuous %s every %v", to.ClassID, to.Interval),
				})
			}
		})
		var hammer func(now sim.Time)
		hammer = func(now sim.Time) {
			if now >= opts.To {
				return
			}
			// Re-resolve the victim's group every round: the online control
			// loop may have live-migrated the tenant since the last query
			// (for a static deployment this is the same group every time).
			g, ok := dep.GroupFor(to.Tenant)
			if ok && g.Router.TenantInFlight(to.Tenant) == 0 {
				p.Submitted++
				if _, err := g.Router.Submit(to.Tenant, d.takeOver); err != nil {
					p.SubmitErrors++
				}
			}
			eng.After(to.Interval, hammer)
		}
		eng.Schedule(to.Start, hammer)
	}

	// Failure injection (§4.4). The injector only breaks things: it degrades
	// the instance and fails the backing pool node. Detection and repair run
	// on the groups' recovery controllers — the same autonomous path the
	// service uses — armed here only when there are failures to recover (in
	// any group, so the layouts arm the same controllers), so failure-free
	// replays keep their pre-controller event schedule bit-identically.
	if len(d.fails) > 0 {
		for _, g := range groups() {
			if g.Recovery == nil {
				rc, err := recovery.New(eng, dep.Pool(), g.Plan.ID, g.Instances, recoveryConfig(opts))
				if err != nil {
					return nil, err
				}
				rc.SetTelemetry(dep.Telemetry())
				rc.Start()
				g.Recovery = rc
			}
			p.controllers = append(p.controllers, g.Recovery)
		}
	}
	for fi := range d.fails {
		ev := &d.fails[fi]
		if g, ok := dep.Plane().GroupByID(ev.Group); ok && (only == nil || g == only) {
			eng.Schedule(ev.At, func(sim.Time) { injectFailure(dep, g, ev) })
		}
	}

	// Statistics sampling. Each sample also lands on the telemetry RT-TTP
	// gauge, so a /metrics scrape sees the timeline the report sees. A
	// registry lookup builds its key string, so each group's is done once.
	gauges := make(map[*master.DeployedGroup]*telemetry.Gauge)
	var tick sim.Event // one event re-keyed for every sample
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		for _, g := range groups() {
			rt := g.Monitor.RTTTP()
			p.samples[g.Plan.ID] = append(p.samples[g.Plan.ID], Sample{
				At:     now,
				RTTTP:  rt,
				Active: g.Monitor.ActiveTenants(),
			})
			if h := dep.Telemetry(); h != nil {
				if gauges[g] == nil {
					gauges[g] = h.Registry.Gauge("thrifty_group_rt_ttp", "group", g.Plan.ID)
				}
				gauges[g].Set(rt)
			}
		}
		if now < opts.To {
			eng.Reschedule(&tick, now.Add(opts.SampleEvery), sample)
		}
	}
	eng.Reschedule(&tick, opts.From, sample)

	// Elastic scaling: one scaler per engine, all drawing from the one
	// (mutex-protected) node pool. Scale-up MPPDB IDs stay deterministic: a
	// scaler numbers the instances it adds under their group's name, and a
	// private engine's scaler watches that one group.
	if opts.EnableScaling {
		var err error
		p.scaler, err = scaling.New(eng, dep.Pool(), opts.ScalerConfig)
		if err != nil {
			return nil, err
		}
		p.scaler.SetTelemetry(dep.Telemetry())
		for _, g := range groups() {
			p.scaler.Watch(&scaling.Target{Router: g.Router, Monitor: g.Monitor, Members: g.Members})
		}
		p.scaler.Start()
	}
	return p, nil
}

// recoveryConfig resolves the controllers' config for a run with failures.
func recoveryConfig(opts Options) recovery.Config {
	if opts.Recovery != nil {
		return *opts.Recovery
	}
	return recovery.DefaultConfig()
}

// injectFailure applies one scripted failure to its group: the instance loses
// a node and the pool's backing node (if any is active for that instance) is
// marked Failed, so the controller's swap has a node to cart away. The caller
// must own the group's engine.
func injectFailure(dep *master.Deployment, g *master.DeployedGroup, ev *FailureEvent) {
	if ev.Instance < 0 || ev.Instance >= len(g.Instances) {
		ev.Err = fmt.Sprintf("group %s has no instance %d", ev.Group, ev.Instance)
		return
	}
	inst := g.Instances[ev.Instance]
	if err := inst.FailNode(); err != nil {
		ev.Err = err.Error()
		return
	}
	ev.MPPDB = inst.ID()
	if id, err := dep.Pool().FailAny(inst.ID()); err == nil {
		ev.Node = id
	}
	if h := dep.Telemetry(); h != nil {
		h.Events.Publish(telemetry.Event{
			Type:   telemetry.EventNodeFailure,
			Group:  ev.Group,
			MPPDB:  inst.ID(),
			Value:  float64(inst.FailedNodes()),
			Detail: "degraded; awaiting autonomous recovery",
		})
	}
}

// fillRepairs back-fills FailureEvent.RepairedAt from the controllers'
// lifecycles: the k-th applied injection against an instance (by failure
// instant) maps to the instance's k-th detected recovery.
func fillRepairs(fails []FailureEvent, recs []recovery.Event) {
	byDB := make(map[string][]recovery.Event)
	for _, r := range recs {
		byDB[r.MPPDB] = append(byDB[r.MPPDB], r)
	}
	order := make([]int, 0, len(fails))
	for i := range fails {
		if fails[i].Err == "" && fails[i].MPPDB != "" {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return fails[order[a]].At < fails[order[b]].At
	})
	next := make(map[string]int)
	for _, i := range order {
		db := fails[i].MPPDB
		k := next[db]
		next[db] = k + 1
		if k < len(byDB[db]) && byDB[db][k].Recovered() {
			fails[i].RepairedAt = byDB[db][k].Completed
		}
	}
}
