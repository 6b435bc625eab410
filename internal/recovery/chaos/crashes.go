package chaos

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/replay"
)

// Crashes is a randomized-but-seeded node-crash schedule against every
// group: lone crashes, repeat crashes mid-recovery, and cross-group bursts.
// The crashes go through replay.Options.Failures, so each lands as a shared
// event on its group's own engine, and every repair is the autonomous §4.4
// loop. Every group replays its logged traffic, against its logged SLO
// targets; the drain defaults to one day. A zero field takes its default;
// the zero value is a lone crash every ~2 h.
type Crashes struct {
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
	if c.MeanBetween < 0 || c.RepeatDelay < 0 || c.MaxFailures < 0 {
		return nil, fmt.Errorf("chaos: MeanBetween=%v RepeatDelay=%v MaxFailures=%d", c.MeanBetween, c.RepeatDelay, c.MaxFailures)
	}
	res := r.res
	res.CrashSchedule = BuildCrashes(r.dep, r.cfg.Seed, r.cfg.Window, c)
	return &armed{
		every:  true,
		drain:  24 * time.Hour,
		inject: func(opts *replay.Options) { opts.Failures = append(opts.Failures, res.CrashSchedule...) },
		condense: func(rep *replay.Report) {
			for _, fe := range rep.FailureEvents {
				if fe.Err == "" {
					res.Applied++
				}
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
func BuildCrashes(dep *master.Deployment, seed int64, w Window, c Crashes) []replay.Failure {
	c.MeanBetween, c.RepeatDelay = cmp.Or(c.MeanBetween, 2*time.Hour), cmp.Or(c.RepeatDelay, 10*time.Minute)
	c.MaxFailures = cmp.Or(c.MaxFailures, 16)
	rng := rand.New(rand.NewSource(seed))
	groups := dep.Groups()
	var out []replay.Failure
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
				out = append(out, replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
			}
			continue
		}
		g := groups[rng.Intn(len(groups))]
		f := replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))}
		out = append(out, f)
		if len(out) < c.MaxFailures && rng.Float64() < c.RepeatProb {
			out = append(out, replay.Failure{At: t.Add(c.RepeatDelay), Group: f.Group, Instance: f.Instance})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
