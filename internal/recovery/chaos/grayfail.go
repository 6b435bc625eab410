package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// GrayFailConfig parameterizes a seeded fail-slow storm: a schedule of
// fractional slowdown episodes against the deployment's largest group while
// every member replays its logged traffic.
type GrayFailConfig struct {
	// Seed fixes the schedule's randomness (instance choice, profile order,
	// factor jitter).
	Seed int64
	// Window bounds the run; the drain defaults to 6 h, so drain-replacements
	// finish reloading before the pool is tallied.
	Window
	// Episodes is how many fail-slow episodes to schedule (default 3). They
	// are spaced evenly through the window, one instance each.
	Episodes int
	// Factor is the episode depth — the fraction of nominal speed a gray
	// instance drops to (default 0.3; jittered ±0.05 by the seed).
	Factor float64
	// Duration is each episode's length (default 2 h, clamped to the
	// inter-episode spacing so a same-instance pair can never overlap).
	Duration time.Duration
	// Slowdowns, when non-nil, is an explicit schedule and overrides the
	// generated one. It is validated either way.
	Slowdowns []Slowdown
}

// DefaultGrayFailConfig returns a three-episode storm cycling through the
// stuck, gradual, and flapping profiles.
func DefaultGrayFailConfig() GrayFailConfig {
	return GrayFailConfig{
		Seed:     1,
		Episodes: 3,
		Factor:   0.3,
		Duration: 2 * time.Hour,
	}
}

func (c GrayFailConfig) validate() error {
	if err := c.Window.validate("grayfail"); err != nil {
		return err
	}
	if c.Slowdowns == nil {
		if c.Episodes < 1 || c.Duration <= 0 {
			return fmt.Errorf("grayfail: Episodes=%d Duration=%v", c.Episodes, c.Duration)
		}
		if c.Factor <= 0.05 || c.Factor >= 0.95 {
			return fmt.Errorf("grayfail: Factor=%v outside (0.05,0.95)", c.Factor)
		}
	}
	return nil
}

// BuildSlowdowns derives the fail-slow schedule for the target group:
// Episodes episodes spaced evenly through the window, each hitting a seeded
// instance with the stuck, gradual, and flapping profiles in rotation. It is
// deterministic in (group shape, cfg) and always returns a schedule that
// passes ValidateSlowdowns.
func BuildSlowdowns(target *master.DeployedGroup, cfg GrayFailConfig) []Slowdown {
	rng := rand.New(rand.NewSource(cfg.Seed))
	profiles := []SlowProfile{ProfileStuck, ProfileGradual, ProfileFlapping}
	spacing := (cfg.To - cfg.From) / sim.Time(cfg.Episodes+1)
	dur := sim.Duration(cfg.Duration)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	out := make([]Slowdown, 0, cfg.Episodes)
	for i := 0; i < cfg.Episodes; i++ {
		factor := cfg.Factor + (rng.Float64()-0.5)*0.1
		e := Slowdown{
			At:       cfg.From + sim.Time(i+1)*spacing - dur/2,
			Duration: time.Duration(dur),
			Group:    target.Plan.ID,
			Instance: rng.Intn(len(target.Instances)),
			Profile:  profiles[i%len(profiles)],
			Factor:   factor,
			Steps:    4,
			Period:   time.Duration(dur / 6),
		}
		out = append(out, e)
	}
	return out
}

// GrayFailResult condenses a fail-slow storm run.
type GrayFailResult struct {
	// Group is the target group the storm hit.
	Group string
	// Schedule is the injected fail-slow schedule.
	Schedule []Slowdown
	// GrayArmed records whether the deployment had the detector armed.
	GrayArmed bool
	// Submitted counts scheduled logged submissions; Errors routing
	// failures.
	Submitted, Errors int
	// Attainment is the target group's per-query SLA attainment; worst
	// member in MinAttainment.
	Attainment    float64
	MinAttainment float64
	// MinRTTTP is the lowest sampled RT-TTP of the target group.
	MinRTTTP float64
	// GrayEvents are the detector's episodes (empty when unarmed);
	// Suspected/Confirmed/Drained tally the rungs reached.
	GrayEvents                    []recovery.GrayEvent
	Suspected, Confirmed, Drained int
	// Hedged and HedgeWins are the router's hedge tallies.
	Hedged, HedgeWins int64
	// CrashInFlight counts recoveries still pending after the drain.
	CrashInFlight int
	// ResidualSlow counts instances still below full speed at the end.
	ResidualSlow int
	PoolTally
}

// Verify checks the structural bar shared by bare and protected runs: every
// episode's slowdown was lifted, nothing is stuck mid-recovery, and the pool
// is leak-free. When the detector was armed against a non-empty schedule it
// must also have confirmed at least one episode — a ladder that never fires
// protects nothing.
func (r *GrayFailResult) Verify() error {
	if r.ResidualSlow != 0 {
		return fmt.Errorf("grayfail: %d instances still slow after the drain", r.ResidualSlow)
	}
	if r.CrashInFlight != 0 {
		return fmt.Errorf("grayfail: %d recoveries still in flight", r.CrashInFlight)
	}
	if err := r.leak("grayfail"); err != nil {
		return err
	}
	if r.GrayArmed && len(r.Schedule) > 0 && r.Confirmed == 0 {
		return fmt.Errorf("grayfail: detector armed but never confirmed a gray instance")
	}
	return nil
}

// RunGrayFail drives a seeded fail-slow storm against the deployment's
// largest group, scheduled on the coordinator engine: the episodes impose
// fractional slowdowns (stuck, gradual, flapping) while every member replays
// its logged traffic. With the gray detector armed the hedge → drain ladder
// responds; bare deployments just eat the slowdown. Deterministic: same seed
// and deployment ⇒ byte-identical telemetry.
func RunGrayFail(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg GrayFailConfig) (*GrayFailResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	groups, err := stormTarget("grayfail", eng, dep)
	if err != nil {
		return nil, err
	}
	target := largest(groups)
	sched := cfg.Slowdowns
	if sched == nil {
		sched = BuildSlowdowns(target, cfg)
	}
	if err := ValidateSlowdowns(sched, cfg.From, cfg.To); err != nil {
		return nil, err
	}
	if err := applySlowdowns(eng, dep, sched); err != nil {
		return nil, err
	}

	// Every member of the target replays its logged traffic.
	opts := cfg.options(6 * time.Hour)
	opts.Submit = submitWithSlack
	rep, err := replay.Run(eng, dep, cat, memberLogs([]*master.DeployedGroup{target}, logs), opts)
	if err != nil {
		return nil, err
	}

	// Condense: detector ladder, hedge tallies, SLA attainment over the
	// target's members, and the pool leak check.
	res := &GrayFailResult{
		Group:     target.Plan.ID,
		Schedule:  sched,
		GrayArmed: target.Gray != nil,
		Submitted: rep.Submitted,
		Errors:    rep.SubmitErrors,
		MinRTTTP:  rep.MinRTTTP(target.Plan.ID),
		PoolTally: tallyPool(dep),
	}
	res.Attainment, res.MinAttainment = attainment(dep, []*master.DeployedGroup{target})
	if target.Gray != nil {
		res.GrayEvents = target.Gray.Events()
		for _, ev := range res.GrayEvents {
			res.Suspected++
			if ev.Confirmed > 0 {
				res.Confirmed++
			}
			if ev.Drained > 0 {
				res.Drained++
			}
		}
	}
	res.Hedged, res.HedgeWins = target.Router.HedgeStats()
	res.CrashInFlight = target.Recovery.InProgress()
	for _, g := range dep.Groups() {
		for _, inst := range g.Instances {
			if inst.Slowdown() != 1 {
				res.ResidualSlow++
			}
		}
	}
	return res, nil
}
