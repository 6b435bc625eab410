// Package replay drives a live deployment with recorded tenant logs: it
// streams the query submissions of a time window (workload.Stream), routes
// each through the deployment's per-group routers at its logged time (open
// loop), and samples run-time statistics. This is the run-time half of the evaluation
// testbed — the §7.5 elastic-scaling experiment and the SLA-attainment
// validation both run on it.
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
	// Submitted and SubmitErrors count routing attempts and failures.
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

// Run replays the logs' query events in [From, To) against the deployment.
// Tenants in the logs that are not deployed (e.g. excluded ones) are
// skipped. The engine is run to completion of the window plus any in-flight
// queries.
func Run(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, opts Options) (*Report, error) {
	if opts.To <= opts.From {
		return nil, fmt.Errorf("replay: window [%v,%v)", opts.From, opts.To)
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 10 * time.Minute
	}
	if dep.Sharded() {
		return nil, fmt.Errorf("replay: Run drives one shared engine; use RunParallel for a sharded deployment")
	}
	if eng.Now() > opts.From {
		return nil, fmt.Errorf("replay: engine already at %v, window starts %v", eng.Now(), opts.From)
	}
	rep := &Report{Samples: make(map[string][]Sample)}

	// Logged submissions stream from an arrival source, with the logged
	// before-consolidation latency as the SLA target. The tenant's group and
	// ref are resolved per query: the online control loop may live-migrate a
	// tenant mid-window. Master interns every group, so a NoRef is a tenant
	// its router does not hold, and SubmitRef reports it.
	var deployed []*workload.TenantLog
	for _, tl := range logs {
		if _, ok := dep.GroupFor(tl.Tenant.ID); ok {
			deployed = append(deployed, tl)
		}
	}
	arrivals, err := workload.NewStream(cat, deployed, opts.From, opts.To)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	plane := dep.Plane()
	arrivals.Drive(eng, func(a workload.Arrival) {
		rep.Submitted++
		if g, ref, ok := plane.ForTenantRef(a.Tenant); ok {
			if _, err := g.Router.SubmitRef(ref, a.Class, a.SLATarget); err == nil {
				return
			}
		}
		rep.SubmitErrors++
	})

	// Take-over injection. The interval is a floor, not an open-loop rate:
	// a new query is only submitted once the previous one finishes — the
	// paper's tester "continuously submitted queries" one after another
	// (§7.5). An open loop with an interval under the query latency would
	// grow an unbounded queue, which no real client does, and the victim's
	// self-inflicted slowdown would drown the group's numbers.
	if to := opts.TakeOver; to != nil {
		class, ok := cat.ByID(to.ClassID)
		if !ok {
			return nil, fmt.Errorf("replay: unknown take-over class %s", to.ClassID)
		}
		group, ok := dep.GroupFor(to.Tenant)
		if !ok {
			return nil, fmt.Errorf("replay: take-over tenant %s not deployed", to.Tenant)
		}
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
				rep.Submitted++
				if _, err := dep.Submit(to.Tenant, class); err != nil {
					rep.SubmitErrors++
				}
			}
			eng.After(to.Interval, hammer)
		}
		eng.Schedule(to.Start, hammer)
	}

	// Failure injection (§4.4). The injector only breaks things: it degrades
	// the instance and fails the backing pool node. Detection and repair run
	// on the groups' recovery controllers — the same autonomous path the
	// service uses — armed here only when there are failures to recover, so
	// failure-free replays keep their pre-controller event schedule
	// bit-identically.
	var controllers []*recovery.Controller
	if len(opts.Failures) > 0 {
		for _, g := range dep.Groups() {
			if g.Recovery == nil {
				rc, err := recovery.New(eng, dep.Pool(), g.Plan.ID, g.Instances, recoveryConfig(opts))
				if err != nil {
					return nil, err
				}
				rc.SetTelemetry(dep.Telemetry())
				rc.Start()
				g.Recovery = rc
			}
			controllers = append(controllers, g.Recovery)
		}
	}
	for fi, f := range opts.Failures {
		fi, f := fi, f
		rep.FailureEvents = append(rep.FailureEvents, FailureEvent{Failure: f, Node: -1})
		eng.Schedule(f.At, func(sim.Time) {
			injectFailure(dep, &rep.FailureEvents[fi])
		})
	}

	// Statistics sampling. Each sample also lands on the telemetry RT-TTP
	// gauge, so a /metrics scrape sees the timeline the report sees. A
	// registry lookup builds its key string, so each group's is done once.
	gauges := make(map[*master.DeployedGroup]*telemetry.Gauge)
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		for _, g := range dep.Groups() {
			rt := g.Monitor.RTTTP()
			rep.Samples[g.Plan.ID] = append(rep.Samples[g.Plan.ID], Sample{
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
			eng.After(opts.SampleEvery, sample)
		}
	}
	eng.Schedule(opts.From, sample)

	// Elastic scaling.
	var scaler *scaling.Scaler
	if opts.EnableScaling {
		var err error
		scaler, err = scaling.New(eng, dep.Pool(), opts.ScalerConfig)
		if err != nil {
			return nil, err
		}
		scaler.SetTelemetry(dep.Telemetry())
		for _, t := range dep.ScalerTargets() {
			scaler.Watch(t)
		}
		scaler.Start()
	}

	eng.Run(opts.To)
	// Let in-flight queries finish; the scaler's periodic tick (and the
	// recovery heartbeat) would run forever, so bound the drain.
	eng.Run(opts.drainUntil())

	rep.Records = dep.Records()
	if scaler != nil {
		rep.ScalingEvents = scaler.Events()
	}
	for _, rc := range controllers {
		rep.RecoveryEvents = append(rep.RecoveryEvents, rc.Events()...)
	}
	fillRepairs(rep.FailureEvents, rep.RecoveryEvents)
	return rep, nil
}

// recoveryConfig resolves the controllers' config for a run with failures.
func recoveryConfig(opts Options) recovery.Config {
	if opts.Recovery != nil {
		return *opts.Recovery
	}
	return recovery.DefaultConfig()
}

// injectFailure applies one scripted failure against the deployment: the
// instance loses a node and the pool's backing node (if any is active for
// that instance) is marked Failed, so the controller's swap has a node to
// cart away. The caller must own the deployment's engine.
func injectFailure(dep *master.Deployment, ev *FailureEvent) {
	var g *master.DeployedGroup
	for _, cand := range dep.Groups() {
		if cand.Plan.ID == ev.Group {
			g = cand
		}
	}
	if g == nil {
		ev.Err = fmt.Sprintf("no group %q", ev.Group)
		return
	}
	injectFailureOn(dep, g, ev)
}

// injectFailureOn is injectFailure with the group already resolved; the
// parallel path calls it from the group's own clock domain.
func injectFailureOn(dep *master.Deployment, g *master.DeployedGroup, ev *FailureEvent) {
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

// groupReport accumulates one group's share of a parallel replay. All fields
// are written only by the goroutine driving that group's clock domain.
type groupReport struct {
	samples      []Sample
	records      []monitor.QueryRecord
	scaling      []scaling.Event
	recovery     []recovery.Event
	submitted    int
	submitErrors int
	err          error
}

// RunParallel replays the logs against a sharded deployment, driving every
// tenant-group's clock domain in its own goroutine. Tenant-groups share
// nothing at query time (§3–§5), so each group's replay is independently
// deterministic: per-group record sequences, samples, and scaling events are
// identical run to run (and, with scaling disabled, identical to a shared
// domain Run of the same seed). The merged Records are deterministic too —
// stable-sorted by submit time, with deployment group order breaking ties.
// Only cross-group telemetry ordering (event sequence numbers, trace
// timestamps from the max-clock) is best-effort under parallelism.
func RunParallel(dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, opts Options) (*Report, error) {
	if opts.To <= opts.From {
		return nil, fmt.Errorf("replay: window [%v,%v)", opts.From, opts.To)
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 10 * time.Minute
	}
	if !dep.Sharded() {
		return nil, fmt.Errorf("replay: RunParallel needs a sharded deployment; use Run")
	}
	groups := dep.Groups()

	// Partition the inputs by group up front, so each goroutine touches only
	// its own slice.
	index := make(map[*master.DeployedGroup]int, len(groups))
	for i, g := range groups {
		index[g] = i
	}
	logsBy := make([][]*workload.TenantLog, len(groups))
	for _, tl := range logs {
		if g, ok := dep.GroupFor(tl.Tenant.ID); ok {
			logsBy[index[g]] = append(logsBy[index[g]], tl)
		}
	}
	takeOverBy := -1
	var takeOverClass *queries.Class
	if to := opts.TakeOver; to != nil {
		cl, ok := cat.ByID(to.ClassID)
		if !ok {
			return nil, fmt.Errorf("replay: unknown take-over class %s", to.ClassID)
		}
		g, ok := dep.GroupFor(to.Tenant)
		if !ok {
			return nil, fmt.Errorf("replay: take-over tenant %s not deployed", to.Tenant)
		}
		takeOverBy = index[g]
		takeOverClass = cl
	}
	failEvents := make([]FailureEvent, len(opts.Failures))
	failuresBy := make([][]int, len(groups))
	for fi, f := range opts.Failures {
		failEvents[fi] = FailureEvent{Failure: f, Node: -1}
		found := false
		for i, g := range groups {
			if g.Plan.ID == f.Group {
				failuresBy[i] = append(failuresBy[i], fi)
				found = true
				break
			}
		}
		if !found {
			failEvents[fi].Err = fmt.Sprintf("no group %q", f.Group)
		}
	}

	reports := make([]groupReport, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = replayGroup(dep, groups[i], cat, logsBy[i],
				takeOverBy == i, takeOverClass, failuresBy[i], failEvents, opts)
		}(i)
	}
	wg.Wait()

	rep := &Report{Samples: make(map[string][]Sample), FailureEvents: failEvents}
	for i, g := range groups {
		r := &reports[i]
		if r.err != nil {
			return nil, r.err
		}
		rep.Samples[g.Plan.ID] = r.samples
		rep.Records = append(rep.Records, r.records...)
		rep.ScalingEvents = append(rep.ScalingEvents, r.scaling...)
		rep.RecoveryEvents = append(rep.RecoveryEvents, r.recovery...)
		rep.Submitted += r.submitted
		rep.SubmitErrors += r.submitErrors
	}
	fillRepairs(rep.FailureEvents, rep.RecoveryEvents)
	// Deterministic merge: per-group sequences are already deterministic;
	// a stable sort by submit time (concatenation group order breaking
	// ties) yields one canonical global order.
	sort.SliceStable(rep.Records, func(i, j int) bool {
		return rep.Records[i].Submit < rep.Records[j].Submit
	})
	return rep, nil
}

// replayGroup runs one group's slice of the replay on its own clock domain.
// Everything is scheduled first under the domain (Do), then the domain is
// advanced through the window; callbacks run while the domain is held, so
// they use the group's raw subsystems directly and never re-enter locked
// GroupRuntime methods.
func replayGroup(dep *master.Deployment, g *master.DeployedGroup, cat *queries.Catalog,
	logs []*workload.TenantLog, takeOver bool, takeOverClass *queries.Class,
	failures []int, failEvents []FailureEvent, opts Options) groupReport {
	var res groupReport
	dom := g.Domain()
	var scaler *scaling.Scaler
	dom.Do(func(eng *sim.Engine) {
		if eng.Now() > opts.From {
			res.err = fmt.Errorf("replay: group %s already at %v, window starts %v",
				g.Plan.ID, eng.Now(), opts.From)
			return
		}
		// Logged submissions stream from an arrival source; a group's
		// membership is fixed here, so each log's ref resolves once.
		refs := make([]tenant.Ref, len(logs))
		for i, tl := range logs {
			refs[i] = g.Router.Ref(tl.Tenant.ID)
		}
		arrivals, err := workload.NewStream(cat, logs, opts.From, opts.To)
		if err != nil {
			res.err = fmt.Errorf("replay: %w", err)
			return
		}
		arrivals.Drive(eng, func(a workload.Arrival) {
			res.submitted++
			if _, err := g.Router.SubmitRef(refs[a.Log], a.Class, a.SLATarget); err != nil {
				res.submitErrors++
			}
		})

		// Take-over injection (§7.5), closed loop as in Run.
		if takeOver {
			to := opts.TakeOver
			eng.Schedule(to.Start, func(sim.Time) {
				if h := dep.Telemetry(); h != nil {
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
				if g.Router.TenantInFlight(to.Tenant) == 0 {
					res.submitted++
					if _, err := g.Router.SubmitWithTarget(to.Tenant, takeOverClass, 0); err != nil {
						res.submitErrors++
					}
				}
				eng.After(to.Interval, hammer)
			}
			eng.Schedule(to.Start, hammer)
		}

		// Failure injection for this group's instances (§4.4): the injector
		// breaks, the group's recovery controller detects and repairs. The
		// controller is armed whenever the run injects failures anywhere —
		// matching Run's shared-mode behaviour group for group.
		if len(opts.Failures) > 0 && g.Recovery == nil {
			rc, err := recovery.New(eng, dep.Pool(), g.Plan.ID, g.Instances, recoveryConfig(opts))
			if err != nil {
				res.err = err
				return
			}
			rc.SetTelemetry(dep.Telemetry())
			rc.Start()
			g.Recovery = rc
		}
		for _, fi := range failures {
			fi := fi
			eng.Schedule(failEvents[fi].At, func(sim.Time) {
				injectFailureOn(dep, g, &failEvents[fi])
			})
		}

		// Statistics sampling for this group.
		var gauge *telemetry.Gauge
		var sample func(now sim.Time)
		sample = func(now sim.Time) {
			rt := g.Monitor.RTTTP()
			res.samples = append(res.samples, Sample{
				At:     now,
				RTTTP:  rt,
				Active: g.Monitor.ActiveTenants(),
			})
			if h := dep.Telemetry(); h != nil {
				if gauge == nil {
					gauge = h.Registry.Gauge("thrifty_group_rt_ttp", "group", g.Plan.ID)
				}
				gauge.Set(rt)
			}
			if now < opts.To {
				eng.After(opts.SampleEvery, sample)
			}
		}
		eng.Schedule(opts.From, sample)

		// Elastic scaling: one scaler per group, all drawing from the shared
		// (mutex-protected) node pool. Scale-up MPPDB IDs stay deterministic:
		// each scaler numbers its own group's instances.
		if opts.EnableScaling {
			var err error
			scaler, err = scaling.New(eng, dep.Pool(), opts.ScalerConfig)
			if err != nil {
				res.err = err
				return
			}
			scaler.SetTelemetry(dep.Telemetry())
			scaler.Watch(&scaling.Target{Router: g.Router, Monitor: g.Monitor, Members: g.Members})
			scaler.Start()
		}
	})
	if res.err != nil {
		return res
	}

	dom.Advance(opts.To, nil)
	// Let in-flight queries finish; the scaler's periodic tick (and the
	// recovery heartbeat) would run forever, so bound the drain.
	dom.Advance(opts.drainUntil(), nil)

	dom.Do(func(*sim.Engine) {
		res.records = g.Monitor.AppendRecords(res.records)
		if scaler != nil {
			res.scaling = scaler.Events()
		}
		if g.Recovery != nil {
			res.recovery = g.Recovery.Events()
		}
	})
	return res
}
