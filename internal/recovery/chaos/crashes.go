package chaos

import (
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
// one day. The zero value derives the crash experiment's mix: a failure
// instant every ~2 h, a quarter of its crashes repeated mid-recovery, one
// instant in ten a cross-group burst.
type Crashes struct {
	// Schedule, when non-nil, is the crashes to inject, each at or after
	// the window's start on an instance the deployment has; one at or past
	// its end fires during the drain, as a derived repeat crash can. Nil
	// derives one from the run's seed with BuildCrashes.
	Schedule []Crash
}

// The derived crash mix.
const (
	// crashMeanBetween is the mean gap between failure instants,
	// exponentially distributed.
	crashMeanBetween = 2 * time.Hour
	// repeatProb is the chance a crash is followed by a second crash of the
	// same instance repeatDelay later — typically while the first recovery
	// is still reloading.
	repeatProb  = 0.25
	repeatDelay = 10 * time.Minute
	// burstProb is the chance a failure instant hits every group at once
	// instead of one.
	burstProb = 0.1
	// maxCrashes bounds the schedule.
	maxCrashes = 16
)

func (c Crashes) arm(r *run) (*armed, error) {
	sched := c.Schedule
	if sched == nil {
		sched = BuildCrashes(r.dep, r.cfg.Seed, r.cfg.Window)
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
						g.Telemetry().Events.Publish(telemetry.Event{
							Type:   telemetry.EventNodeFailure,
							Group:  g.Plan.ID,
							MPPDB:  inst.ID(),
							Value:  float64(inst.FailedNodes()),
							Detail: "degraded; awaiting autonomous recovery",
						})
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
// window. It is deterministic in (deployment group order, seed, window).
func BuildCrashes(dep *master.Deployment, seed int64, w Window) []Crash {
	rng := rand.New(rand.NewSource(seed))
	groups := dep.Groups()
	var out []Crash
	t := w.From
	for len(out) < maxCrashes {
		t = t.Add(time.Duration(rng.ExpFloat64() * float64(crashMeanBetween)))
		if t >= w.To {
			break
		}
		if rng.Float64() < burstProb {
			for _, g := range groups {
				if len(out) >= maxCrashes {
					break
				}
				out = append(out, Crash{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
			}
			continue
		}
		g := groups[rng.Intn(len(groups))]
		f := Crash{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))}
		out = append(out, f)
		if len(out) < maxCrashes && rng.Float64() < repeatProb {
			out = append(out, Crash{At: t.Add(repeatDelay), Group: f.Group, Instance: f.Instance})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
