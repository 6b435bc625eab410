package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/mppdb"
	"repro/internal/sim"
)

// Slowdowns is a seeded fail-slow storm: fractional slowdown episodes
// (stuck, gradual, flapping) against the largest group's instances,
// scheduled on the coordinator engine, while that group's members replay
// their logged traffic against slacked SLO targets. No detector responds:
// the deployment serves through the slowdown, and a run is judged on what
// that costs its attainment. The drain defaults to 6 h. The zero value
// derives three episodes cycling through the stuck, gradual, and flapping
// profiles.
type Slowdowns struct {
	// Schedule, when non-nil, is the episodes to inject — any group's
	// instances, an empty schedule for a no-fault control. Nil derives
	// slowEpisodes episodes against the largest group from the run's seed
	// with BuildSlowdowns.
	Schedule []Slowdown
}

// The derived fail-slow storm.
const (
	// slowEpisodes is how many episodes are derived, spaced evenly through
	// the window, one instance each.
	slowEpisodes = 3
	// slowFactor is the episodes' depth — the fraction of nominal speed a
	// gray instance drops to, jittered ±0.05 by the seed.
	slowFactor = 0.3
	// slowDuration is each episode's length, clamped to the inter-episode
	// spacing so a same-instance pair can never overlap.
	slowDuration = 2 * time.Hour
)

func (s Slowdowns) arm(r *run) (*armed, error) {
	if r.eng == nil {
		return nil, fmt.Errorf("grayfail: nil engine")
	}
	target, sched := r.target, s.Schedule
	if sched == nil {
		sched = BuildSlowdowns(target.Plan.ID, len(target.Instances), r.cfg.Seed, r.cfg.Window)
	}
	if err := ValidateSlowdowns(sched, r.cfg.From, r.cfg.To); err != nil {
		return nil, err
	}
	insts := make([]*mppdb.Instance, len(sched))
	for i, e := range sched {
		g, ok := r.dep.Plane().GroupByID(e.Group)
		if !ok || e.Instance < 0 || e.Instance >= len(g.Instances) {
			return nil, &ScheduleError{Index: i, Reason: "bad_target",
				Detail: fmt.Sprintf("no instance %d in group %s", e.Instance, e.Group)}
		}
		insts[i] = g.Instances[e.Instance]
	}
	r.res.SlowSchedule = sched
	return &armed{
		drain:  6 * time.Hour,
		slack:  true,
		inject: func() { applySlowdowns(r.eng, insts, sched) },
	}, nil
}

// check is the fault's own bar: every episode's slowdown was lifted.
func (s Slowdowns) check(r *Result, _ float64) error {
	if r.ResidualSlow != 0 {
		return fmt.Errorf("grayfail: %d instances still slow after the drain", r.ResidualSlow)
	}
	return nil
}

// BuildSlowdowns derives a fail-slow schedule against the named group of
// the given instance count: slowEpisodes episodes spaced evenly through the
// window, each hitting a seeded instance with the stuck, gradual, and
// flapping profiles in rotation. It is deterministic in its arguments and,
// for at least one instance and a window of at least a minute per episode,
// always returns a schedule that passes ValidateSlowdowns.
func BuildSlowdowns(group string, instances int, seed int64, w Window) []Slowdown {
	rng := rand.New(rand.NewSource(seed))
	profiles := []SlowProfile{ProfileStuck, ProfileGradual, ProfileFlapping}
	spacing := (w.To - w.From) / sim.Time(slowEpisodes+1)
	dur := sim.Duration(slowDuration)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	out := make([]Slowdown, 0, slowEpisodes)
	for i := 0; i < slowEpisodes; i++ {
		factor := slowFactor + (rng.Float64()-0.5)*0.1
		out = append(out, Slowdown{
			At:       w.From + sim.Time(i+1)*spacing - dur/2,
			Duration: time.Duration(dur),
			Group:    group,
			Instance: rng.Intn(instances),
			Profile:  profiles[i%len(profiles)],
			Factor:   factor,
			Steps:    4,
			Period:   time.Duration(dur / 6),
		})
	}
	return out
}

// SlowProfile names a fail-slow injection shape.
type SlowProfile string

const (
	// ProfileStuck drops the instance to Factor at At and holds it there for
	// the whole Duration — the classic stuck-at-slow gray failure.
	ProfileStuck SlowProfile = "stuck"
	// ProfileGradual deepens the slowdown in Steps even decrements from
	// healthy to Factor across the Duration — a dying disk or a slowly
	// filling queue.
	ProfileGradual SlowProfile = "gradual"
	// ProfileFlapping alternates between Factor and full speed every Period
	// — the intermittent fault that defeats naive threshold detectors.
	ProfileFlapping SlowProfile = "flapping"
)

// Slowdown is one scheduled fail-slow episode against a group instance.
type Slowdown struct {
	// At and Duration bound the episode.
	At       sim.Time
	Duration time.Duration
	// Group and Instance locate the target (instance is the group-local
	// index, like replay.Failure).
	Group    string
	Instance int
	// Profile shapes the episode; Factor is its depth in (0,1) — the
	// fraction of nominal speed the instance drops to.
	Profile SlowProfile
	Factor  float64
	// Steps is the gradual profile's decrement count (≥1).
	Steps int
	// Period is the flapping profile's half-cycle.
	Period time.Duration
}

// ScheduleError reports an invalid slowdown schedule entry — returned typed
// at construction so a bad schedule can never silently misbehave mid-run.
type ScheduleError struct {
	// Index is the offending entry's position in the schedule.
	Index int
	// Reason is a stable, machine-matchable failure class: "zero_duration",
	// "out_of_horizon", "bad_factor", "bad_profile", "bad_steps",
	// "bad_period", "overlap", or, against a deployment, "bad_target".
	Reason string
	// Detail elaborates for humans.
	Detail string
}

func (e *ScheduleError) Error() string {
	return fmt.Sprintf("chaos: slowdown[%d]: %s (%s)", e.Index, e.Reason, e.Detail)
}

// ValidateSlowdowns checks a schedule against the run window [from, to):
// every entry must have positive duration, lie fully inside the horizon,
// carry a sane profile shape, and no two entries may overlap on the same
// (group, instance). The first violation in schedule order is returned as a
// *ScheduleError; of overlapping entries, the first that starts inside an
// entry ahead of it in (start, index) order.
func ValidateSlowdowns(entries []Slowdown, from, to sim.Time) error {
	for i, e := range entries {
		bad := func(reason, format string, a ...any) error {
			return &ScheduleError{Index: i, Reason: reason, Detail: fmt.Sprintf(format, a...)}
		}
		end := e.At.Add(e.Duration)
		switch {
		case e.Duration <= 0:
			return bad("zero_duration", "duration %v", e.Duration)
		case e.At < from || end > to:
			return bad("out_of_horizon", "[%v,%v) outside [%v,%v)", e.At, end, from, to)
		case e.Factor <= 0 || e.Factor >= 1:
			return bad("bad_factor", "factor %v outside (0,1)", e.Factor)
		case e.Profile != ProfileStuck && e.Profile != ProfileGradual && e.Profile != ProfileFlapping:
			return bad("bad_profile", "unknown profile %q", e.Profile)
		case e.Profile == ProfileGradual && e.Steps < 1:
			return bad("bad_steps", "gradual profile with %d steps", e.Steps)
		case e.Profile == ProfileFlapping && (e.Period <= 0 || e.Period >= e.Duration):
			return bad("bad_period", "period %v against duration %v", e.Period, e.Duration)
		}
	}
	type target struct {
		group    string
		instance int
	}
	i, j := firstOverlap(len(entries),
		func(i int) target { return target{entries[i].Group, entries[i].Instance} },
		func(i int) (sim.Time, sim.Time) { return entries[i].At, entries[i].At.Add(entries[i].Duration) })
	if i >= 0 {
		return &ScheduleError{Index: i, Reason: "overlap",
			Detail: fmt.Sprintf("entry %d overlaps entry %d on %s/%d", i, j, entries[i].Group, entries[i].Instance)}
	}
	return nil
}

// firstOverlap finds, among n entries each with a target key and a span
// [from, to), the lowest-indexed entry that starts before the end of an
// entry on its target ahead of it in (start, index) order. It returns that
// entry and the one it overlaps, or -1, -1 when no two entries on a target
// overlap.
func firstOverlap[K comparable](n int, key func(int) K, span func(int) (sim.Time, sim.Time)) (first, prior int) {
	byKey := make(map[K][]int)
	for i := 0; i < n; i++ {
		byKey[key(i)] = append(byKey[key(i)], i)
	}
	first, prior = -1, -1
	for _, idx := range byKey {
		sort.SliceStable(idx, func(a, b int) bool {
			fa, _ := span(idx[a])
			fb, _ := span(idx[b])
			return fa < fb
		})
		latest := idx[0]
		for _, i := range idx[1:] {
			from, to := span(i)
			_, end := span(latest)
			if from < end && (first < 0 || i < first) {
				first, prior = i, latest
			}
			if to > end {
				latest = i
			}
		}
	}
	return first, prior
}

// applySlowdowns schedules every episode's SetSlowdown steps on the engine,
// against its resolved instance. Every episode restores
// full speed at its end, so residual slowdown at drain time means the run
// itself misbehaved.
func applySlowdowns(eng *sim.Engine, insts []*mppdb.Instance, entries []Slowdown) {
	for i, e := range entries {
		inst := insts[i]
		end := e.At.Add(e.Duration)
		switch e.Profile {
		case ProfileStuck:
			f := e.Factor
			eng.Schedule(e.At, func(sim.Time) { _ = inst.SetSlowdown(f) })
		case ProfileGradual:
			step := e.Duration / time.Duration(e.Steps)
			for k := 0; k < e.Steps; k++ {
				f := 1 - (1-e.Factor)*float64(k+1)/float64(e.Steps)
				eng.Schedule(e.At.Add(time.Duration(k)*step), func(sim.Time) { _ = inst.SetSlowdown(f) })
			}
		case ProfileFlapping:
			f := e.Factor
			for k, t := 0, e.At; t < end; k, t = k+1, t.Add(e.Period) {
				if k%2 == 0 {
					eng.Schedule(t, func(sim.Time) { _ = inst.SetSlowdown(f) })
				} else {
					eng.Schedule(t, func(sim.Time) { _ = inst.SetSlowdown(1) })
				}
			}
		}
		eng.Schedule(end, func(sim.Time) { _ = inst.SetSlowdown(1) })
	}
}
