// Package replay drives a live deployment with recorded tenant logs: it
// streams the query submissions of a time window (workload.Stream), routes
// each through the deployment's per-group routers at its logged time (open
// loop), samples run-time statistics, and drains. This is the run-time half
// of the evaluation testbed: Run is the one arrival → sample → drain loop,
// and it injects no fault. Every perturbation — the §7.5 take-over, the §4.4
// node crashes and the rest of recovery/chaos's fault values — is scheduled
// by its caller, on the coordinator engine or a group's, before Run.
package replay

import (
	"fmt"
	"time"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Options configures a replay run.
type Options struct {
	// From and To bound the replayed window.
	From, To sim.Time
	// SampleEvery sets the statistics sampling period (default 10 min).
	SampleEvery time.Duration
	// DrainSlack extends the post-window drain that lets in-flight queries —
	// and, under faults, recoveries and re-images — settle (default one
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

// Run replays the logs' query events in [From, To) against the deployment and
// runs it to the end of the window plus the drain: each arrival is submitted
// through Options.Submit (nil: its group's router) at its logged time.
// Tenants in the logs that are not deployed (e.g. excluded ones) are
// skipped; a group's logs keep their order in logs, which breaks ties
// between its simultaneous arrivals.
//
// Each tenant-group's share of the replay — its arrivals and sampler — is
// scheduled on the group's own engine. eng is the coordinator (nil: none):
// it carries the cross-group work the caller scheduled on it beforehand,
// such as a storm's perturbations; a caller's work on one group (a crash, a
// take-over) goes on that group's engine beforehand. sim.Domains.Drive then
// runs every engine, the groups' on GOMAXPROCS goroutines between barriers:
// events fire by time, then deployment group order, the coordinator's after
// the groups' at equal instants, so a replay is byte-identical per seed at
// any width. Records come back in deployment group order, each group's in
// completion order, in a slice allocated before the drive: one slot per
// record already logged and per arrival in the window, so the collector sets
// its target from what the pass uses, not from the drained heap. A drive that
// completes more than that (a storm's coordinator submits) grows it once.
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
	mine := make(map[*master.DeployedGroup][]*workload.TenantLog)
	for _, tl := range logs {
		if g, ok := dep.GroupFor(tl.Tenant.ID); ok {
			mine[g] = append(mine[g], tl)
		}
	}
	groups := dep.Groups()
	parts := make([]*part, len(groups))
	room := 0
	for i, g := range groups {
		var err error
		g.Domain().Do(func(eng *sim.Engine) { parts[i], err = schedule(eng, cat, mine[g], g, opts) })
		if err != nil {
			return nil, err
		}
		room += parts[i].room
	}
	records := make([]monitor.QueryRecord, 0, room)
	doms := dep.Plane().Domains()
	doms.Drive(eng, opts.To)
	doms.Drive(eng, opts.drainUntil())

	rep := &Report{Samples: make(map[string][]Sample), Records: dep.Plane().AppendRecords(records)}
	for _, p := range parts {
		rep.Samples[p.group.Plan.ID] = p.samples
		rep.Submitted += p.Submitted
		rep.SubmitErrors += p.SubmitErrors
		if p.group.Scaler != nil {
			rep.ScalingEvents = append(rep.ScalingEvents, p.group.Scaler.Events()...)
		}
		rep.RecoveryEvents = append(rep.RecoveryEvents, p.group.Recovery.Events()...)
	}
	return rep, nil
}

// part is one group's share of a replay.
type part struct {
	Counts
	group   *master.DeployedGroup
	samples []Sample
	// room is how many records the group can have once the window drains:
	// those it logged before, plus one per arrival of its stream.
	room int
}

// schedule puts g's share of the replay on eng, g's engine — the arrivals of
// logs (g's members) and the sampler — for the caller to run through the
// window and the drain.
func schedule(eng *sim.Engine, cat *queries.Catalog, logs []*workload.TenantLog,
	g *master.DeployedGroup, opts Options) (*part, error) {
	if eng.Now() > opts.From {
		return nil, fmt.Errorf("replay: group %s already at %v, window starts %v", g.Plan.ID, eng.Now(), opts.From)
	}
	arrivals, err := workload.NewStream(cat, logs, opts.From, opts.To)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	submit := opts.Submit
	if submit == nil {
		submit = route
	}
	// Every log is one of g's members, and the plane does not change once
	// deployed, so each log's ref is resolved once, before any arrival.
	refs := make([]tenant.Ref, len(logs))
	for i, tl := range logs {
		refs[i] = g.Router.Ref(tl.Tenant.ID)
	}
	p := &part{group: g, room: g.Monitor.RecordCount() + arrivals.Len()}
	arrivals.Drive(eng, func(a workload.Arrival) {
		p.Submitted++
		if submit(a, g, refs[a.Log]) != nil {
			p.SubmitErrors++
		}
	})

	// Statistics sampling. Each sample also lands on the telemetry RT-TTP
	// gauge, so a /metrics scrape sees the timeline the report sees.
	gauge := g.Telemetry().Registry.Gauge("thrifty_group_rt_ttp", "group", g.Plan.ID)
	var tick sim.Event // one event re-keyed for every sample
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		rt := g.Monitor.RTTTP()
		p.samples = append(p.samples, Sample{At: now, RTTTP: rt, Active: g.Monitor.ActiveTenants()})
		gauge.Set(rt)
		if now < opts.To {
			eng.Reschedule(&tick, now.Add(opts.SampleEvery), sample)
		}
	}
	eng.Reschedule(&tick, opts.From, sample)

	return p, nil
}
