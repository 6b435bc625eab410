// Package replay drives a live deployment with recorded tenant logs: it
// streams the query submissions of a time window (workload.Stream), routes
// each through the deployment's per-group routers at its logged time (open
// loop), samples run-time statistics, and drains. This is the run-time half
// of the evaluation testbed: Run is the one arrival → sample → drain loop,
// and every run-time experiment — §7.5 elastic scaling, the SLA-attainment
// validation, the fault harness of recovery/chaos, the drift scenario —
// schedules its own perturbation on the coordinator engine and calls it.
package replay

import (
	"fmt"
	"sort"
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
// detection and repair are autonomous — the injection schedules the group's
// recovery.Controller's detection at the first instant of its 30-s grid at or
// after the fault, and the controller swaps the node at the pool, prices
// replacement startup plus the Table 5.1 bulk reload, and restores full
// speed. Scripted and service-path recovery share that one
// code path.
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
	// SampleEvery sets the statistics sampling period (default 10 min).
	SampleEvery time.Duration
	// TakeOver, when non-nil, injects the §7.5 over-activity.
	TakeOver *TakeOver
	// Failures injects node failures.
	Failures []Failure
	// DrainSlack extends the post-window drain that lets in-flight queries —
	// and, with failures, recoveries and re-images — settle (default one
	// day). Long reloads of data-heavy groups can need more.
	DrainSlack time.Duration
	// Submit, when non-nil, submits each replayed arrival to its resolved
	// group instead of the group's router alone: the fault harness puts
	// admission or an SLO slack in front of the router here.
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
	// ScalingEvents are the elastic-scaling actions taken, in deployment
	// group order (empty unless the deployment armed its scalers).
	ScalingEvents []scaling.Event
	// FailureEvents are the injected node failures and their repairs.
	FailureEvents []FailureEvent
	// RecoveryEvents are the controllers' recovery lifecycles, in deployment
	// group order.
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

// resolved is one log's tenant as the plane indexes it; g is nil for a
// tenant the plane does not hold.
type resolved struct {
	g   *master.DeployedGroup
	ref tenant.Ref
}

// Attach streams the logs' query events in [from, to) into the engine, each
// resolved to its tenant's group and submitted through submit (nil: the
// group's router) at its logged time, counting into tally; a tenant the plane
// does not index counts as a submit error. It is the one arrival loop of the
// tree: Run attaches each group's share of the replayed population to the
// group's engine through it, and a caller with traffic on a window of its own
// (the drift experiment's joiners and leavers) attaches that to the
// coordinator engine before calling Run.
//
// The plane does not change once deployed, so each log's tenant is resolved
// once, here, before any arrival is driven.
func Attach(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog, logs []*workload.TenantLog,
	from, to sim.Time, submit SubmitFunc, tally *Counts) error {
	arrivals, err := workload.NewStream(cat, logs, from, to)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if submit == nil {
		submit = route
	}
	routes := make([]resolved, len(logs))
	for i, tl := range logs {
		routes[i].g, routes[i].ref, _ = dep.Plane().ForTenantRef(tl.Tenant.ID)
	}
	arrivals.Drive(eng, func(a workload.Arrival) {
		tally.Submitted++
		r := &routes[a.Log]
		if r.g == nil || submit(a, r.g, r.ref) != nil {
			tally.SubmitErrors++
		}
	})
	return nil
}

// Run replays the logs' query events in [From, To) against the deployment and
// runs it to the end of the window plus the drain. Tenants in the logs that
// are not deployed (e.g. excluded ones) are skipped.
//
// Each tenant-group's share of the replay — its arrivals, take-over,
// failures and sampler — is scheduled on the group's own engine. eng
// is the coordinator (nil: none): it carries the cross-group work the caller
// scheduled on it beforehand, such as a storm's perturbations or the caller's
// own traffic. sim.Domains.Drive then runs every engine, the groups' on
// GOMAXPROCS goroutines between barriers: events fire by time, then
// deployment group order, the coordinator's after the groups' at equal
// instants, so a replay is byte-identical per seed at any width. Records
// come back in deployment group order, each group's in completion order.
func Run(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, opts Options) (*Report, error) {
	if opts.To <= opts.From {
		return nil, fmt.Errorf("replay: window [%v,%v)", opts.From, opts.To)
	}
	if eng != nil && eng.Now() > opts.From {
		return nil, fmt.Errorf("replay: coordinator already at %v, window starts %v", eng.Now(), opts.From)
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

	mine := make(map[*master.DeployedGroup][]*workload.TenantLog)
	for _, tl := range logs {
		if g, ok := dep.GroupFor(tl.Tenant.ID); ok {
			mine[g] = append(mine[g], tl)
		}
	}
	groups := dep.Groups()
	parts := make([]*part, len(groups))
	for i, g := range groups {
		var err error
		g.Domain().Do(func(eng *sim.Engine) { parts[i], err = d.schedule(eng, mine[g], g) })
		if err != nil {
			return nil, err
		}
	}
	doms := dep.Plane().Domains()
	doms.Drive(eng, opts.To)
	doms.Drive(eng, opts.drainUntil())

	rep := &Report{Samples: make(map[string][]Sample), FailureEvents: d.fails, Records: dep.Records()}
	for _, p := range parts {
		rep.Samples[p.group.Plan.ID] = p.samples
		rep.Submitted += p.Submitted
		rep.SubmitErrors += p.SubmitErrors
		if p.group.Scaler != nil {
			rep.ScalingEvents = append(rep.ScalingEvents, p.group.Scaler.Events()...)
		}
		rep.RecoveryEvents = append(rep.RecoveryEvents, p.group.Recovery.Events()...)
	}
	fillRepairs(rep.FailureEvents, rep.RecoveryEvents)
	return rep, nil
}

// driver is what every group's share of one replay has in common.
type driver struct {
	dep      *master.Deployment
	cat      *queries.Catalog
	opts     Options
	takeOver *queries.Class
	// fails has one slot per Options.Failures entry; a slot is written only
	// by the failure's group.
	fails []FailureEvent
}

// part is one group's share of a replay.
type part struct {
	Counts
	group   *master.DeployedGroup
	samples []Sample
}

// schedule puts g's share of the replay on eng, g's engine — the arrivals of
// logs (g's members), take-over, failures, sampling — for the caller
// to run through the window and the drain.
func (d *driver) schedule(eng *sim.Engine, logs []*workload.TenantLog, g *master.DeployedGroup) (*part, error) {
	dep, opts := d.dep, d.opts
	if eng.Now() > opts.From {
		return nil, fmt.Errorf("replay: group %s already at %v, window starts %v", g.Plan.ID, eng.Now(), opts.From)
	}
	p := &part{group: g}
	if err := Attach(eng, dep, d.cat, logs, opts.From, opts.To, opts.Submit, &p.Counts); err != nil {
		return nil, err
	}

	// Take-over injection. The interval is a floor, not an open-loop rate:
	// a new query is only submitted once the previous one finishes — the
	// paper's tester "continuously submitted queries" one after another
	// (§7.5). An open loop with an interval under the query latency would
	// grow an unbounded queue, which no real client does, and the victim's
	// self-inflicted slowdown would drown the group's numbers.
	if to := opts.TakeOver; to != nil {
		if victim, _ := dep.GroupFor(to.Tenant); victim == g {
			rt := g.Router
			eng.Schedule(to.Start, func(sim.Time) {
				if h := g.Telemetry(); h != nil {
					h.Events.Publish(telemetry.Event{
						Type:   telemetry.EventTakeOver,
						Group:  g.Plan.ID,
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
				if rt.TenantInFlight(to.Tenant) == 0 {
					p.Submitted++
					if _, err := rt.Submit(to.Tenant, d.takeOver); err != nil {
						p.SubmitErrors++
					}
				}
				eng.After(to.Interval, hammer)
			}
			eng.Schedule(to.Start, hammer)
		}
	}

	// Failure injection (§4.4), as shared events: a failure writes the pool.
	for fi := range d.fails {
		if ev := &d.fails[fi]; ev.Group == g.Plan.ID {
			eng.ScheduleShared(ev.At, func(sim.Time) { injectFailure(dep, g, ev) })
		}
	}

	// Statistics sampling. Each sample also lands on the telemetry RT-TTP
	// gauge, so a /metrics scrape sees the timeline the report sees.
	var gauge *telemetry.Gauge
	if h := g.Telemetry(); h != nil {
		gauge = h.Registry.Gauge("thrifty_group_rt_ttp", "group", g.Plan.ID)
	}
	var tick sim.Event // one event re-keyed for every sample
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		rt := g.Monitor.RTTTP()
		p.samples = append(p.samples, Sample{At: now, RTTTP: rt, Active: g.Monitor.ActiveTenants()})
		if gauge != nil {
			gauge.Set(rt)
		}
		if now < opts.To {
			eng.Reschedule(&tick, now.Add(opts.SampleEvery), sample)
		}
	}
	eng.Reschedule(&tick, opts.From, sample)

	return p, nil
}

// injectFailure applies one scripted failure to its group: the instance loses
// a node and the pool's backing node (if any is active for that instance) is
// marked Failed, so the controller's swap has a node to cart away; then it
// schedules the controller's detection. The caller must own the group's
// engine.
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
	g.Recovery.Detect()
	if h := g.Telemetry(); h != nil {
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
