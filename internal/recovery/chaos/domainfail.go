package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// DomainOutage is one scheduled correlated failure: every active node in the
// failure domain dies at At, and the domain's capacity stays unacquirable
// until At+Duration.
type DomainOutage struct {
	// At is when the domain goes down.
	At sim.Time
	// Duration is how long it stays down.
	Duration time.Duration
	// Domain is the pool failure-domain index.
	Domain int
}

// DomainFailConfig parameterizes a seeded correlated-failure storm: a
// schedule of whole-domain outages against the deployment while every tenant
// replays its logged traffic.
type DomainFailConfig struct {
	// Seed fixes the schedule's randomness (domain choice).
	Seed int64
	// Window bounds the run; the drain defaults to one day, so queued triage
	// claims drain and Table 5.1 reloads finish before the pool is tallied.
	Window
	// Outages is how many domain outages to schedule (default 2).
	Outages int
	// Duration is each outage's length (default 3 h, clamped so same-domain
	// outages can never overlap).
	Duration time.Duration
	// Rolling switches the schedule from evenly spaced independent outages to
	// a rolling storm: consecutive domains go down back-to-back with a 25%
	// overlap, so recovery of one domain races the loss of the next.
	Rolling bool
	// Schedule, when non-nil, is an explicit outage schedule and overrides
	// the generated one. It is validated either way.
	Schedule []DomainOutage
	// Slowdowns, when non-empty, overlays a fail-slow schedule on top of the
	// outages — the outage-during-gray-drain composition.
	Slowdowns []Slowdown
}

// DefaultDomainFailConfig returns a two-outage storm.
func DefaultDomainFailConfig() DomainFailConfig {
	return DomainFailConfig{
		Seed:     1,
		Outages:  2,
		Duration: 3 * time.Hour,
	}
}

func (c DomainFailConfig) validate() error {
	if err := c.Window.validate("domainfail"); err != nil {
		return err
	}
	if c.Schedule == nil && (c.Outages < 1 || c.Duration <= 0) {
		return fmt.Errorf("domainfail: Outages=%d Duration=%v", c.Outages, c.Duration)
	}
	return nil
}

// ValidateOutages checks a schedule against the pool shape and window:
// domains in range, positive durations, and no same-domain overlap (the pool
// rejects failing a domain that is already down).
func ValidateOutages(sched []DomainOutage, domains int, from, to sim.Time) error {
	byDomain := map[int][]DomainOutage{}
	for i, o := range sched {
		if o.Domain < 0 || o.Domain >= domains {
			return fmt.Errorf("domainfail: outage %d targets domain %d of %d", i, o.Domain, domains)
		}
		if o.Duration <= 0 {
			return fmt.Errorf("domainfail: outage %d has duration %v", i, o.Duration)
		}
		if o.At < from || o.At >= to {
			return fmt.Errorf("domainfail: outage %d at %v outside [%v,%v)", i, o.At, from, to)
		}
		byDomain[o.Domain] = append(byDomain[o.Domain], o)
	}
	for d, os := range byDomain {
		sort.Slice(os, func(i, j int) bool { return os[i].At < os[j].At })
		for i := 1; i < len(os); i++ {
			if os[i].At < os[i-1].At.Add(os[i-1].Duration) {
				return fmt.Errorf("domainfail: domain %d outages overlap at %v", d, os[i].At)
			}
		}
	}
	return nil
}

// BuildOutages derives the outage schedule. Deterministic in (domains, cfg).
// Plain storms space Outages evenly through the window, each hitting a seeded
// domain; rolling storms march through consecutive domains back-to-back with
// a 25% overlap so restoration of one races the loss of the next.
func BuildOutages(domains int, cfg DomainFailConfig) []DomainOutage {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dur := sim.Duration(cfg.Duration)
	out := make([]DomainOutage, 0, cfg.Outages)
	if cfg.Rolling {
		step := dur * 3 / 4
		start := cfg.From + (cfg.To-cfg.From)/4
		d0 := rng.Intn(domains)
		for i := 0; i < cfg.Outages; i++ {
			at := start + sim.Time(i)*step
			if at >= cfg.To {
				break
			}
			out = append(out, DomainOutage{At: at, Duration: time.Duration(dur), Domain: (d0 + i) % domains})
		}
		return out
	}
	spacing := (cfg.To - cfg.From) / sim.Time(cfg.Outages+1)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	for i := 0; i < cfg.Outages; i++ {
		out = append(out, DomainOutage{
			At:       cfg.From + sim.Time(i+1)*spacing - dur/2,
			Duration: time.Duration(dur),
			Domain:   rng.Intn(domains),
		})
	}
	return out
}

// applyOutages schedules the correlated-failure injections. At each outage
// the pool fails the whole domain; every casualty is mirrored onto its
// hosting instance (capped at nodes-1 — §4.4's "stays online" floor), and any
// instance left with at least half its nodes dead is quarantined out of
// routing until repaired — routing is not speed-aware, so without the gate a
// majority-degraded instance keeps drawing its full query share at crawl
// speed for the whole reload. The router re-admits a quarantined instance
// implicitly when it is the last one ready, so no query is ever dropped.
// Affected groups' recovery controllers are notified; restoration is
// scheduled at At+Duration.
func applyOutages(eng *sim.Engine, dep *master.Deployment, sched []DomainOutage, res *DomainFailResult) {
	pool := dep.Pool()
	hub := dep.Telemetry()
	for _, o := range sched {
		o := o
		eng.Schedule(o.At, func(sim.Time) {
			cas, err := pool.FailDomain(o.Domain)
			if err != nil {
				res.InjectErrs = append(res.InjectErrs, err.Error())
				return
			}
			res.Casualties += len(cas)
			// Per-owner casualty counts, first-seen (ascending node ID) order
			// so the injection is deterministic.
			counts := map[string]int{}
			var owners []string
			for _, c := range cas {
				if counts[c.Owner] == 0 {
					owners = append(owners, c.Owner)
				}
				counts[c.Owner]++
			}
			var notify []*master.DeployedGroup
			seen := map[*master.DeployedGroup]bool{}
			for _, owner := range owners {
				g, inst, ok := dep.Plane().InstanceByID(owner)
				if !ok {
					// Respread-staged nodes (owner "X/respread"): the staging
					// abort path reclaims them; nothing serves on them yet.
					continue
				}
				for i := 0; i < counts[owner]; i++ {
					if err := inst.FailNode(); err != nil {
						break // degradation cap; the pool record drives the rest
					}
				}
				if counts[owner] >= inst.Nodes() || 2*inst.FailedNodes() >= inst.Nodes() {
					q0 := g.Router.Quarantined()
					g.Router.SetQuarantine(owner, true)
					res.Quarantines += g.Router.Quarantined() - q0
				}
				if !seen[g] {
					seen[g] = true
					notify = append(notify, g)
				}
			}
			if hub != nil {
				hub.Events.Publish(telemetry.Event{
					Type:  telemetry.EventDomainFailed,
					Value: float64(len(cas)),
					Detail: fmt.Sprintf("domain %d down for %v: %d active nodes failed across %d owners",
						o.Domain, o.Duration, len(cas), len(owners)),
				})
			}
			for _, g := range notify {
				g.Recovery.Notify()
			}
		})
		eng.Schedule(o.At.Add(o.Duration), func(sim.Time) {
			if err := pool.RestoreDomain(o.Domain); err != nil {
				res.InjectErrs = append(res.InjectErrs, err.Error())
				return
			}
			if hub != nil {
				hub.Events.Publish(telemetry.Event{
					Type:   telemetry.EventDomainRestored,
					Detail: fmt.Sprintf("domain %d restored; hibernated capacity acquirable again", o.Domain),
				})
			}
		})
	}
}

// DomainFailResult condenses a correlated-failure storm run.
type DomainFailResult struct {
	// Schedule is the injected outage schedule.
	Schedule []DomainOutage
	// Casualties counts pool nodes killed by outages; Quarantines the
	// majority-degraded instances pulled from routing.
	Casualties, Quarantines int
	// InjectErrs records outages or restorations the pool rejected.
	InjectErrs []string
	// Submitted counts scheduled logged submissions; Errors routing failures
	// (the zero-dropped-queries bar).
	Submitted, Errors int
	// Attainment is the per-query SLA attainment across all tenants; worst
	// member in MinAttainment.
	Attainment    float64
	MinAttainment float64
	// MinRTTTP is the lowest sampled RT-TTP across all groups.
	MinRTTTP float64
	// Lifecycles counts recovery lifecycles begun; Recovered those completed;
	// Triaged those that waited in the scarcity queue.
	Lifecycles, Recovered, Triaged int
	// TriageEnqueued and TriageGranted are the allocator's cumulative stats;
	// QueuedClaims the claims still outstanding after the drain.
	TriageEnqueued, TriageGranted, QueuedClaims int
	// Respreads counts post-restoration re-spread cutovers; CollapsedGroups
	// the multi-instance groups still confined to one domain at the end.
	Respreads, CollapsedGroups int
	// InFlight counts recoveries still pending after the drain;
	// ResidualDegraded instances still missing nodes; QuarantinedEnd
	// instances still quarantined; DownDomains domains still down.
	InFlight, ResidualDegraded, QuarantinedEnd, DownDomains int
	PoolTally
}

// Verify checks the structural bar shared by every arm: all injections
// landed, no query was dropped, every domain came back, every recovery and
// triage claim drained, no instance is left degraded or quarantined, and the
// pool is leak-free.
func (r *DomainFailResult) Verify() error {
	if len(r.InjectErrs) > 0 {
		return fmt.Errorf("domainfail: injection errors: %v", r.InjectErrs)
	}
	if r.Errors != 0 {
		return fmt.Errorf("domainfail: %d of %d queries dropped", r.Errors, r.Submitted)
	}
	if r.DownDomains != 0 {
		return fmt.Errorf("domainfail: %d domains still down after the drain", r.DownDomains)
	}
	if r.InFlight != 0 {
		return fmt.Errorf("domainfail: %d recoveries still in flight", r.InFlight)
	}
	if r.QueuedClaims != 0 {
		return fmt.Errorf("domainfail: %d triage claims still queued", r.QueuedClaims)
	}
	if r.ResidualDegraded != 0 {
		return fmt.Errorf("domainfail: %d instances still degraded", r.ResidualDegraded)
	}
	if r.QuarantinedEnd != 0 {
		return fmt.Errorf("domainfail: %d instances still quarantined", r.QuarantinedEnd)
	}
	return r.leak("domainfail")
}

// RunDomainFail drives a seeded correlated-failure storm against every group
// of a deployment on a multi-domain pool: whole failure domains
// go down and come back per the schedule while every tenant replays its
// logged traffic. Spread placement, the scarcity triage, quarantine
// re-routing, and post-restoration re-spread respond when armed; bare
// deployments just eat the outages. Deterministic: same seed and deployment
// ⇒ byte-identical telemetry.
func RunDomainFail(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg DomainFailConfig) (*DomainFailResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	groups, err := stormTarget("domainfail", eng, dep)
	if err != nil {
		return nil, err
	}
	pool := dep.Pool()
	if pool.Domains() < 2 {
		return nil, fmt.Errorf("domainfail: pool has %d failure domains, need ≥2", pool.Domains())
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = BuildOutages(pool.Domains(), cfg)
	}
	if err := ValidateOutages(sched, pool.Domains(), cfg.From, cfg.To); err != nil {
		return nil, err
	}
	res := &DomainFailResult{Schedule: sched}
	if len(cfg.Slowdowns) > 0 {
		if err := ValidateSlowdowns(cfg.Slowdowns, cfg.From, cfg.To); err != nil {
			return nil, err
		}
		if err := applySlowdowns(eng, dep, cfg.Slowdowns); err != nil {
			return nil, err
		}
	}
	applyOutages(eng, dep, sched, res)

	// Every tenant replays its logged traffic through its group's router.
	opts := cfg.options(24 * time.Hour)
	opts.Submit = submitWithSlack
	rep, err := replay.Run(eng, dep, cat, memberLogs(groups, logs), opts)
	if err != nil {
		return nil, err
	}
	res.Submitted, res.Errors = rep.Submitted, rep.SubmitErrors
	res.MinRTTTP = rep.WorstRTTTP()

	// Condense: recovery/triage/respread tallies, spread end-state, SLA
	// attainment, and the pool leak check.
	for _, g := range groups {
		for _, inst := range g.Instances {
			if inst.FailedNodes() > 0 {
				res.ResidualDegraded++
			}
		}
		res.QuarantinedEnd += g.Router.Quarantined()
		res.InFlight += g.Recovery.InProgress()
		res.Respreads += g.Recovery.Respreads()
		for _, ev := range g.Recovery.Events() {
			res.Lifecycles++
			if ev.Recovered() {
				res.Recovered++
			}
			if ev.Triaged {
				res.Triaged++
			}
		}
		if len(g.Instances) >= 2 {
			doms := map[int]bool{}
			for _, inst := range g.Instances {
				for _, d := range pool.OwnerDomains(inst.ID()) {
					doms[d] = true
				}
			}
			if len(doms) < 2 {
				res.CollapsedGroups++
			}
		}
	}
	res.TriageEnqueued, res.TriageGranted = dep.Triage().Stats()
	res.QueuedClaims = len(dep.Triage().Queued())
	res.DownDomains = len(pool.DownDomains())
	res.Attainment, res.MinAttainment = attainment(dep, groups)
	res.PoolTally = tallyPool(dep)
	return res, nil
}
