package chaos

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
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

// Outages is a seeded correlated-failure storm on a multi-domain pool:
// whole failure domains go down and come back on the coordinator engine
// while every group's members replay their logged traffic against slacked
// SLO targets. Spread placement, the scarcity triage, quarantine re-routing,
// and post-restoration re-spread respond when armed; bare deployments just
// eat the outages. The drain defaults to one day, so queued triage claims
// drain and Table 5.1 reloads finish before the pool is tallied. A zero
// field takes its default; the zero value is two 3-h outages.
type Outages struct {
	// Schedule, when non-nil, is the outages to inject — an empty schedule
	// for a no-fault control. Nil derives Count outages from the run's seed.
	Schedule []DomainOutage
	// Count is how many outages to derive (default 2).
	Count int
	// Duration is each derived outage's length (default 3 h), clamped so
	// same-domain outages can never overlap.
	Duration time.Duration
	// Rolling switches the derived schedule from evenly spaced independent
	// outages to a rolling storm: consecutive domains go down back-to-back
	// with a 25% overlap, so recovery of one domain races the loss of the
	// next.
	Rolling bool
}

func (o Outages) arm(r *run) (*armed, error) {
	if r.eng == nil {
		return nil, fmt.Errorf("domainfail: nil engine")
	}
	domains := r.dep.Pool().Domains()
	if domains < 2 {
		return nil, fmt.Errorf("domainfail: pool has %d failure domains, need ≥2", domains)
	}
	sched := o.Schedule
	if sched == nil {
		if o.Count < 0 || o.Duration < 0 {
			return nil, fmt.Errorf("domainfail: Count=%d Duration=%v", o.Count, o.Duration)
		}
		sched = BuildOutages(domains, r.cfg.Seed, r.cfg.Window, o)
	}
	if err := ValidateOutages(sched, domains, r.cfg.From, r.cfg.To); err != nil {
		return nil, err
	}
	r.res.OutageSchedule = sched
	return &armed{
		every:  true,
		drain:  24 * time.Hour,
		slack:  true,
		inject: func(*replay.Options) { applyOutages(r.eng, r.dep, sched, r.res) },
	}, nil
}

// check holds the structural bar of every arm: all injections landed, no
// query was dropped, every domain came back, every triage claim drained,
// and no instance is left degraded or quarantined.
func (o Outages) check(r *Result, _ float64) error {
	if len(r.InjectErrs) > 0 {
		return fmt.Errorf("domainfail: injection errors: %v", r.InjectErrs)
	}
	if r.Report.SubmitErrors != 0 {
		return fmt.Errorf("domainfail: %d of %d queries dropped", r.Report.SubmitErrors, r.Report.Submitted)
	}
	for _, left := range []struct {
		n    int
		what string
	}{
		{r.DownDomains, "domains still down after the drain"},
		{r.QueuedClaims, "triage claims still queued"},
		{r.ResidualDegraded, "instances still degraded"},
		{r.QuarantinedEnd, "instances still quarantined"},
	} {
		if left.n != 0 {
			return fmt.Errorf("domainfail: %d %s", left.n, left.what)
		}
	}
	return nil
}

// ValidateOutages checks a schedule against the pool shape and window:
// domains in range, positive durations, starts inside [from, to), and no
// same-domain overlap (the pool rejects failing a domain that is already
// down). Of several violations it reports the first in schedule order; of
// overlapping outages, the first that starts inside one ahead of it in
// (start, index) order.
func ValidateOutages(sched []DomainOutage, domains int, from, to sim.Time) error {
	for i, o := range sched {
		switch {
		case o.Domain < 0 || o.Domain >= domains:
			return fmt.Errorf("domainfail: outage %d targets domain %d of %d", i, o.Domain, domains)
		case o.Duration <= 0:
			return fmt.Errorf("domainfail: outage %d has duration %v", i, o.Duration)
		case o.At < from || o.At >= to:
			return fmt.Errorf("domainfail: outage %d at %v outside [%v,%v)", i, o.At, from, to)
		}
	}
	if i, _ := firstOverlap(len(sched), func(i int) int { return sched[i].Domain },
		func(i int) (sim.Time, sim.Time) { return sched[i].At, sched[i].At.Add(sched[i].Duration) }); i >= 0 {
		return fmt.Errorf("domainfail: domain %d outages overlap at %v", sched[i].Domain, sched[i].At)
	}
	return nil
}

// BuildOutages derives an outage schedule over a pool of the given domain
// count. Plain storms space o.Count outages evenly through the window, each
// hitting a seeded domain; rolling storms march through consecutive domains
// back-to-back with a 25% overlap so restoration of one races the loss of
// the next. It is deterministic in its arguments and, for at least two
// domains, outages of at least a minute and a window of at least a minute
// per outage, always returns a schedule that passes ValidateOutages.
func BuildOutages(domains int, seed int64, w Window, o Outages) []DomainOutage {
	o.Count, o.Duration = cmp.Or(o.Count, 2), cmp.Or(o.Duration, 3*time.Hour)
	rng := rand.New(rand.NewSource(seed))
	dur := sim.Duration(o.Duration)
	out := make([]DomainOutage, 0, o.Count)
	if o.Rolling {
		step := dur * 3 / 4
		start := w.From + (w.To-w.From)/4
		d0 := rng.Intn(domains)
		for i := 0; i < o.Count; i++ {
			at := start + sim.Time(i)*step
			if at >= w.To {
				break
			}
			out = append(out, DomainOutage{At: at, Duration: time.Duration(dur), Domain: (d0 + i) % domains})
		}
		return out
	}
	spacing := (w.To - w.From) / sim.Time(o.Count+1)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	for i := 0; i < o.Count; i++ {
		out = append(out, DomainOutage{
			At:       w.From + sim.Time(i+1)*spacing - dur/2,
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
func applyOutages(eng *sim.Engine, dep *master.Deployment, sched []DomainOutage, res *Result) {
	pool := dep.Pool()
	hub := dep.Telemetry()
	for _, o := range sched {
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
				if !slices.Contains(notify, g) {
					notify = append(notify, g)
				}
			}
			hub.Events.Publish(telemetry.Event{
				Type:  telemetry.EventDomainFailed,
				Value: float64(len(cas)),
				Detail: fmt.Sprintf("domain %d down for %v: %d active nodes failed across %d owners",
					o.Domain, o.Duration, len(cas), len(owners)),
			})
			for _, g := range notify {
				g.Recovery.Notify()
			}
		})
		eng.Schedule(o.At.Add(o.Duration), func(sim.Time) {
			if err := pool.RestoreDomain(o.Domain); err != nil {
				res.InjectErrs = append(res.InjectErrs, err.Error())
				return
			}
			hub.Events.Publish(telemetry.Event{
				Type:   telemetry.EventDomainRestored,
				Detail: fmt.Sprintf("domain %d restored; hibernated capacity acquirable again", o.Domain),
			})
		})
	}
}
