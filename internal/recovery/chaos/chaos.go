// Package chaos is the fault harness for the §4.4 recovery loop and the
// protections around it. A run is one replay of the deployment's logged
// traffic under a list of faults, each a value of its class: node crashes
// (Crashes), fail-slow episodes (Slowdowns), whole-domain outages (Outages),
// a noisy-tenant storm (Storm) and the §7.5 take-over (TakeOver). Run
// validates every fault against the window and the deployment before any of
// them schedules anything, replays the union of their scopes, and condenses
// the outcome into one Result whose Verify holds the shared bar — no
// recovery left in flight, the node pool back leak-free (every carted-away
// node re-imaged, every replacement accounted for) — and then each fault's
// own.
//
// Every schedule is a pure function of (deployment shape, Config): with a
// fixed Seed it is identical run to run, so a fault run is as replayable as
// any other experiment — same seed and deployment ⇒ byte-identical
// telemetry.
package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Window is what a run shares with the replay it drives: perturbations land
// inside [From, To), the replay samples RT-TTP every SampleEvery, and the
// post-window drain gives recoveries, re-images and queued claims time to
// settle before the pool is tallied.
type Window struct {
	// From and To bound the run window.
	From, To sim.Time
	// SampleEvery is the replay's RT-TTP sampling period (default 10 min).
	SampleEvery time.Duration
	// DrainSlack is the post-window settle time (default: the largest any
	// of the run's faults asks for). Groups with long Table 5.1 reloads
	// need enough to finish recovering.
	DrainSlack time.Duration
}

// Config parameterizes a fault run.
type Config struct {
	// Seed fixes every fault's randomness; each fault draws its own stream
	// from it, so adding a fault never changes another's schedule.
	Seed int64
	// Window bounds the replay; faults land inside it.
	Window
	// Faults are injected together, in order, at most one of each class.
	Faults []Fault
}

// Fault is one class of perturbation. Its values are Crashes, Slowdowns,
// Outages, Storm and TakeOver.
type Fault interface {
	// arm validates the fault against the run's window and deployment,
	// targets included, and derives its schedule into its section of the
	// result. It schedules nothing: Run injects every armed fault only once
	// all of them have armed.
	arm(r *run) (*armed, error)
	// check is the fault's own acceptance bar, after the shared one.
	check(res *Result, p float64) error
}

// armed is a validated fault: what it asks of the replay — every group or
// only the largest, a settle time after the window, SLO targets scaled by
// SLOSlack, and (a storm only) its admission-then-router submit path with
// the tenants whose logged traffic the storm replaces — and how it perturbs
// the run. inject schedules the perturbation before the replay: crashes and
// the take-over on their groups' engines, the rest on the coordinator
// engine. condense, when set, fills the fault's section after the replay.
type armed struct {
	every    bool
	drain    time.Duration
	slack    bool
	submit   replay.SubmitFunc
	skip     map[string]bool
	inject   func()
	condense func(rep *replay.Report)
}

// run is one Run's shared state, for the faults to arm against.
type run struct {
	eng    *sim.Engine // the coordinator; nil for a run of crashes or a take-over
	dep    *master.Deployment
	cat    *queries.Catalog
	logs   []*workload.TenantLog
	cfg    Config
	target *master.DeployedGroup // the largest group
	res    *Result
}

// SLOSlack scales each replayed query's logged duration into its SLO target
// under slowdowns, outages and storms. The logged duration is the
// zero-headroom pre-consolidation latency, and the advisor's P guarantee
// already prices in transient <=(1-P) overflow windows — a slack of 2.5
// forgives worst-case full-duration sharing with a single co-tenant
// (processor sharing doubles latency) and flags only the sustained pile-ups
// a storm causes.
const SLOSlack = 2.5

// slackTarget is a logged duration as a slacked SLO target.
func slackTarget(logged sim.Time) sim.Time { return sim.Time(float64(logged) * SLOSlack) }

// submitWithSlack is the replay's default routing with the SLO slack on the
// target.
func submitWithSlack(a workload.Arrival, g *master.DeployedGroup, ref tenant.Ref) error {
	_, err := g.Router.SubmitRef(ref, a.Class, slackTarget(a.SLATarget))
	return err
}

// Result condenses a fault run: the shared outcome, then one section per
// fault class, zero when the class was not injected.
type Result struct {
	// Report is the underlying replay's report.
	Report *replay.Report
	// Group is the largest group — the target of slowdowns and storms.
	Group string
	// Attainment is the per-query SLA attainment across the replayed
	// groups' members (the hub's tallies); worst member in MinAttainment.
	// Under failures it dips — queries keep completing on degraded
	// instances, just slower — while the paper's actual guarantee (TTP over
	// time, below) holds.
	Attainment, MinAttainment float64
	// MinRTTTP is the lowest sampled RT-TTP of the replayed groups — the
	// §4.2 guarantee metric the plan's P bounds.
	MinRTTTP float64
	// Lifecycles counts recovery lifecycles begun; Recovered those
	// completed; Triaged those that waited in the scarcity queue; InFlight
	// those still pending at the end of the drain.
	Lifecycles, Recovered, Triaged, InFlight int
	// TriageEnqueued and TriageGranted are the allocator's cumulative stats;
	// QueuedClaims the claims still outstanding after the drain.
	TriageEnqueued, TriageGranted, QueuedClaims int
	// Respreads counts post-restoration re-spread cutovers; CollapsedGroups
	// the multi-instance groups confined to one domain at the end.
	Respreads, CollapsedGroups int
	// ResidualSlow, ResidualDegraded and QuarantinedEnd count instances
	// still below full speed, still missing nodes, and still quarantined at
	// the end; DownDomains the domains still down.
	ResidualSlow, ResidualDegraded, QuarantinedEnd, DownDomains int
	// The pool leak check: the nodes the deployment's instances own against
	// the pool's end-state tallies.
	ExpectedActive, ActiveNodes, FailedNodes, RepairingNodes int

	// Crashes: the injected crash schedule; the pool node each crash
	// failed, -1 for none; and the crashes that took a node down (a repeat
	// crash can be rejected when the instance is already at its minimum).
	CrashSchedule []Crash
	CrashNodes    []int
	Applied       int

	// Slowdowns: the injected fail-slow schedule.
	SlowSchedule []Slowdown

	// Outages: the injected outage schedule; pool nodes the outages killed;
	// majority-degraded instances pulled from routing; outages or
	// restorations the pool rejected.
	OutageSchedule          []DomainOutage
	Casualties, Quarantines int
	InjectErrs              []string

	// Storm: the hot tenants; whether the largest group had admission
	// armed; storm submissions scheduled, reaching an MPPDB, throttled
	// (typed 429s), shed (typed 503s) and failing to route; the replayed
	// members' throttled and shed queries; one outcome row per member of
	// the largest group, in member order; and the worst compliant
	// (non-aggressor) member's completed-query attainment.
	Aggressors                                                            []string
	AdmissionOn                                                           bool
	StormSubmitted, StormAdmitted, StormThrottled, StormShed, StormErrors int
	NormalThrottled, NormalShed                                           int
	Outcomes                                                              []TenantOutcome
	MinCompliantAttainment                                                float64

	// TakeOver: the hammer's submissions and the ones that failed to route.
	TakeOverSubmitted, TakeOverErrors int

	faults []Fault
}

// Verify checks the shared acceptance bar — no recovery still in flight, a
// leak-free pool (active matches the deployment, nothing stuck failed or
// mid-re-image) — and then each injected fault's own, in Faults order. p is
// the plan's guarantee, which crashes hold RT-TTP to and storms hold the
// compliant members' attainment to.
func (r *Result) Verify(p float64) error {
	if r.InFlight != 0 {
		return fmt.Errorf("chaos: %d recoveries still in flight", r.InFlight)
	}
	if r.ActiveNodes != r.ExpectedActive || r.FailedNodes != 0 || r.RepairingNodes != 0 {
		return fmt.Errorf("chaos: pool leak — active %d (want %d), failed %d, repairing %d",
			r.ActiveNodes, r.ExpectedActive, r.FailedNodes, r.RepairingNodes)
	}
	for _, f := range r.faults {
		if err := f.check(r, p); err != nil {
			return err
		}
	}
	return nil
}

// Run replays the logs under the faults: it arms every fault (validating it
// and deriving its schedule) before injecting any, replays the members of
// the union of their scopes — the largest group, or every group — over the
// largest drain they ask for, and condenses the outcome. Crashes and the
// take-over inject on their groups' engines, so a run of those alone may
// pass a nil eng; every other fault schedules on the coordinator engine eng.
// A rejected Config schedules nothing.
func Run(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg Config) (*Result, error) {
	groups := dep.Groups()
	switch {
	case cfg.To <= cfg.From:
		return nil, fmt.Errorf("chaos: window [%v,%v)", cfg.From, cfg.To)
	case eng != nil && eng.Now() > cfg.From:
		return nil, fmt.Errorf("chaos: coordinator already at %v, window starts %v", eng.Now(), cfg.From)
	case len(cfg.Faults) == 0:
		return nil, fmt.Errorf("chaos: no faults")
	case len(groups) == 0:
		return nil, fmt.Errorf("chaos: empty deployment")
	}
	r := &run{eng: eng, dep: dep, cat: cat, logs: logs, cfg: cfg, target: largest(groups)}
	r.res = &Result{Group: r.target.Plan.ID, faults: cfg.Faults}
	arms := make([]*armed, len(cfg.Faults))
	classes := make(map[string]bool, len(cfg.Faults))
	for i, f := range cfg.Faults {
		class := fmt.Sprintf("%T", f)
		if classes[class] {
			return nil, fmt.Errorf("chaos: two %s faults", class)
		}
		classes[class] = true
		a, err := f.arm(r)
		if err != nil {
			return nil, err
		}
		arms[i] = a
	}

	opts := replay.Options{From: cfg.From, To: cfg.To, SampleEvery: cfg.SampleEvery, DrainSlack: cfg.DrainSlack}
	scope := []*master.DeployedGroup{r.target}
	var skip map[string]bool
	slack, drain := false, time.Duration(0)
	for _, a := range arms {
		if a.submit != nil {
			opts.Submit, skip = a.submit, a.skip
		}
		if a.every {
			scope = groups
		}
		slack = slack || a.slack
		drain = max(drain, a.drain)
	}
	if opts.Submit == nil && slack {
		opts.Submit = submitWithSlack
	}
	if opts.DrainSlack <= 0 {
		opts.DrainSlack = drain
	}
	for _, a := range arms {
		a.inject()
	}
	rep, err := replay.Run(eng, dep, cat, memberLogs(scope, logs, skip), opts)
	if err != nil {
		return nil, err
	}

	res := r.res
	res.Report = rep
	res.MinRTTTP = 1
	for _, g := range scope {
		res.MinRTTTP = min(res.MinRTTTP, rep.MinRTTTP(g.Plan.ID))
	}
	res.Attainment, res.MinAttainment = attainment(dep, scope)
	condenseEnd(dep, rep, res)
	for _, a := range arms {
		if a.condense != nil {
			a.condense(rep)
		}
	}
	return res, nil
}

// condenseEnd reads the deployment's end state after the drain into the
// shared part of the result: recovery, triage and re-spread tallies, the
// instances left slow, degraded or quarantined, and the pool leak check.
// The drain has returned, so no group's domain is running.
func condenseEnd(dep *master.Deployment, rep *replay.Report, res *Result) {
	pool := dep.Pool()
	for _, ev := range rep.RecoveryEvents {
		res.Lifecycles++
		if ev.Recovered() {
			res.Recovered++
		}
		if ev.Triaged {
			res.Triaged++
		}
	}
	for _, g := range dep.Groups() {
		doms := map[int]bool{}
		for _, inst := range g.Instances {
			res.ExpectedActive += inst.Nodes()
			if inst.Slowdown() != 1 {
				res.ResidualSlow++
			}
			if inst.FailedNodes() > 0 {
				res.ResidualDegraded++
			}
			for _, d := range pool.OwnerDomains(inst.ID()) {
				doms[d] = true
			}
		}
		if len(g.Instances) >= 2 && len(doms) < 2 {
			res.CollapsedGroups++
		}
		res.QuarantinedEnd += g.Router.Quarantined()
		res.InFlight += g.Recovery.InProgress()
		res.Respreads += g.Recovery.Respreads()
	}
	res.TriageEnqueued, res.TriageGranted = dep.Triage().Stats()
	res.QueuedClaims = len(dep.Triage().Queued())
	res.DownDomains = len(pool.DownDomains())
	res.ActiveNodes = pool.CountState(cluster.Active)
	res.FailedNodes = pool.CountState(cluster.Failed)
	res.RepairingNodes = pool.CountState(cluster.Repairing)
}

// largest returns the group with the most members, the first in plan order
// on ties.
func largest(groups []*master.DeployedGroup) *master.DeployedGroup {
	return slices.MaxFunc(groups, func(a, b *master.DeployedGroup) int { return cmp.Compare(len(a.Members), len(b.Members)) })
}

// memberLogs returns the logs of the groups' members but the skipped, in the
// caller's order — the order that breaks ties between simultaneous arrivals,
// whatever the scope.
func memberLogs(groups []*master.DeployedGroup, logs []*workload.TenantLog, skip map[string]bool) []*workload.TenantLog {
	member := make(map[string]bool)
	for _, g := range groups {
		for _, tn := range g.Members {
			member[tn.ID] = !skip[tn.ID]
		}
	}
	return slices.DeleteFunc(slices.Clone(logs), func(tl *workload.TenantLog) bool { return !member[tl.Tenant.ID] })
}

// attainment condenses the hub's per-tenant SLA tallies over the groups'
// members: the per-query attainment across them, and the worst member's.
func attainment(dep *master.Deployment, groups []*master.DeployedGroup) (overall, worst float64) {
	slo := sloByTenant(dep)
	var met, missed int64
	overall, worst = 1, 1
	for _, g := range groups {
		for _, tn := range g.Members {
			s, ok := slo[tn.ID]
			if !ok {
				continue
			}
			met += s.Met
			missed += s.Missed
			if s.Attainment < worst {
				worst = s.Attainment
			}
		}
	}
	if met+missed > 0 {
		overall = float64(met) / float64(met+missed)
	}
	return overall, worst
}

// sloByTenant indexes the hub's SLA report by tenant.
func sloByTenant(dep *master.Deployment) map[string]telemetry.TenantSLO {
	report := dep.Telemetry().SLA.Report()
	out := make(map[string]telemetry.TenantSLO, len(report))
	for _, tn := range report {
		out[tn.Tenant] = tn
	}
	return out
}
