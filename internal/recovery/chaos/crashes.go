package chaos

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Crash is one scheduled node crash (§4.4): at At, one node of the group's
// MPPDB fails, at the instance and, when the pool holds an active node for
// it, at the pool. The MPPDB serves on, degraded, and the crash schedules
// its group's recovery controller's detection, which repairs it.
type Crash struct {
	// At is the crash instant; Group and Instance locate the MPPDB
	// (instance 0 is the tuning MPPDB G₀).
	At       sim.Time
	Group    string
	Instance int
}

// Crashes is a node-crash schedule against every group, explicit or derived
// from the run's seed: lone crashes, repeat crashes mid-recovery, and
// cross-group bursts. Each crash lands as a shared event on its group's own
// engine, and every repair is the autonomous §4.4 loop. Every group replays
// its logged traffic, against its logged SLO targets; the drain defaults to
// one day. A zero field takes its default; the zero value is a lone crash
// every ~2 h.
type Crashes struct {
	// Schedule, when non-nil, is the crashes to inject, each at or after
	// the window's start on an instance the deployment has; one at or past
	// its end fires during the drain, as a derived repeat crash can. Nil
	// derives one from the run's seed and the fields below.
	Schedule []Crash
	// MeanBetween is the mean gap between failure instants, exponentially
	// distributed (default 2 h).
	MeanBetween time.Duration
	// RepeatProb is the chance a crash is followed by a second crash of the
	// same instance RepeatDelay later — typically while the first recovery
	// is still reloading.
	RepeatProb float64
	// RepeatDelay is the lag of the repeat crash (default 10 min).
	RepeatDelay time.Duration
	// BurstProb is the chance a failure instant hits every group at once
	// instead of one.
	BurstProb float64
	// MaxFailures bounds the schedule (default 16).
	MaxFailures int
}

func (c Crashes) arm(r *run) (*armed, error) {
	sched := c.Schedule
	if sched == nil {
		if c.MeanBetween < 0 || c.RepeatDelay < 0 || c.MaxFailures < 0 {
			return nil, fmt.Errorf("chaos: MeanBetween=%v RepeatDelay=%v MaxFailures=%d", c.MeanBetween, c.RepeatDelay, c.MaxFailures)
		}
		sched = BuildCrashes(r.dep, r.cfg.Seed, r.cfg.Window, c)
	}
	groups := make([]*master.DeployedGroup, len(sched))
	for i, f := range sched {
		g, ok := r.dep.Plane().GroupByID(f.Group)
		switch {
		case !ok || f.Instance < 0 || f.Instance >= len(g.Instances):
			return nil, fmt.Errorf("chaos: crash %d targets no instance %d in group %q", i, f.Instance, f.Group)
		case f.At < r.cfg.From:
			return nil, fmt.Errorf("chaos: crash %d at %v before the window's start %v", i, f.At, r.cfg.From)
		}
		groups[i] = g
	}
	res := r.res
	res.CrashSchedule = sched
	res.CrashNodes = make([]int, len(sched))
	for i := range res.CrashNodes {
		res.CrashNodes[i] = -1
	}
	return &armed{
		every: true,
		drain: 24 * time.Hour,
		// A crash is a shared event on its group's engine: it writes the
		// pool. It fails the pool's node too, so the controller's swap has a
		// node to cart away.
		inject: func() {
			for i, f := range sched {
				g, inst := groups[i], groups[i].Instances[f.Instance]
				g.Domain().Do(func(eng *sim.Engine) {
					eng.ScheduleShared(f.At, func(sim.Time) {
						if inst.FailNode() != nil {
							return // the instance is at its minimum
						}
						res.Applied++
						res.CrashNodes[i], _ = r.dep.Pool().FailAny(inst.ID())
						g.Recovery.Detect()
						if h := g.Telemetry(); h != nil {
							h.Events.Publish(telemetry.Event{
								Type:   telemetry.EventNodeFailure,
								Group:  g.Plan.ID,
								MPPDB:  inst.ID(),
								Value:  float64(inst.FailedNodes()),
								Detail: "degraded; awaiting autonomous recovery",
							})
						}
					})
				})
			}
		},
	}, nil
}

// check holds the SLA guarantee — every replayed group's sampled RT-TTP
// stayed at least p throughout, the thesis' time-based attainment, which
// degraded-but-serving instances preserve — and every applied crash
// recovered. p = 0 checks recovery alone.
func (c Crashes) check(r *Result, p float64) error {
	if r.MinRTTTP < p {
		return fmt.Errorf("chaos: RT-TTP dipped to %.4f < %.4f", r.MinRTTTP, p)
	}
	if r.Recovered < r.Applied {
		return fmt.Errorf("chaos: %d of %d applied failures recovered", r.Recovered, r.Applied)
	}
	return nil
}

// BuildCrashes derives the crash schedule for the deployment over the
// window. It is deterministic in (deployment group order, seed, window, c).
func BuildCrashes(dep *master.Deployment, seed int64, w Window, c Crashes) []Crash {
	c.MeanBetween, c.RepeatDelay = cmp.Or(c.MeanBetween, 2*time.Hour), cmp.Or(c.RepeatDelay, 10*time.Minute)
	c.MaxFailures = cmp.Or(c.MaxFailures, 16)
	rng := rand.New(rand.NewSource(seed))
	groups := dep.Groups()
	var out []Crash
	t := w.From
	for len(out) < c.MaxFailures {
		t = t.Add(time.Duration(rng.ExpFloat64() * float64(c.MeanBetween)))
		if t >= w.To {
			break
		}
		if rng.Float64() < c.BurstProb {
			for _, g := range groups {
				if len(out) >= c.MaxFailures {
					break
				}
				out = append(out, Crash{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
			}
			continue
		}
		g := groups[rng.Intn(len(groups))]
		f := Crash{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))}
		out = append(out, f)
		if len(out) < c.MaxFailures && rng.Float64() < c.RepeatProb {
			out = append(out, Crash{At: t.Add(c.RepeatDelay), Group: f.Group, Instance: f.Instance})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
