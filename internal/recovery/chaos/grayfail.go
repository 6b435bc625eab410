package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
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
	// From and To bound the run window.
	From, To sim.Time
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
	// SLASlack scales each replayed query's logged duration into its SLO
	// target (default 2.5, as in the overload storm).
	SLASlack float64
	// SampleEvery is the RT-TTP sampling period (default 10 min).
	SampleEvery time.Duration
	// DrainSlack extends the post-window settle time (default 6 h) so
	// drain-replacements finish reloading before the pool is tallied.
	DrainSlack time.Duration
}

// DefaultGrayFailConfig returns a three-episode storm cycling through the
// stuck, gradual, and flapping profiles.
func DefaultGrayFailConfig() GrayFailConfig {
	return GrayFailConfig{
		Seed:        1,
		Episodes:    3,
		Factor:      0.3,
		Duration:    2 * time.Hour,
		SLASlack:    2.5,
		SampleEvery: 10 * time.Minute,
		DrainSlack:  6 * time.Hour,
	}
}

func (c GrayFailConfig) validate() error {
	if c.To <= c.From {
		return fmt.Errorf("grayfail: window [%v,%v)", c.From, c.To)
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
	// ExpectedActive is the node count the deployment's instances own;
	// Active/Failed/Repairing are the pool's end-state tallies.
	ExpectedActive, ActiveNodes, FailedNodes, RepairingNodes int
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
	if r.ActiveNodes != r.ExpectedActive || r.FailedNodes != 0 || r.RepairingNodes != 0 {
		return fmt.Errorf("grayfail: pool leak — active %d (want %d), failed %d, repairing %d",
			r.ActiveNodes, r.ExpectedActive, r.FailedNodes, r.RepairingNodes)
	}
	if r.GrayArmed && len(r.Schedule) > 0 && r.Confirmed == 0 {
		return fmt.Errorf("grayfail: detector armed but never confirmed a gray instance")
	}
	return nil
}

// RunGrayFail drives a seeded fail-slow storm against the deployment's
// largest group on a shared clock domain: the schedule's episodes impose
// fractional slowdowns (stuck, gradual, flapping) while every member replays
// its logged traffic. With the gray detector armed the hedge → drain ladder
// responds; bare deployments just eat the slowdown. Deterministic: same seed
// and deployment ⇒ byte-identical telemetry.
func RunGrayFail(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg GrayFailConfig) (*GrayFailResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dep.Sharded() {
		return nil, fmt.Errorf("grayfail: requires a shared-domain deployment")
	}
	if eng == nil {
		return nil, fmt.Errorf("grayfail: nil engine")
	}
	if cfg.SLASlack <= 0 {
		cfg.SLASlack = 2.5
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 10 * time.Minute
	}
	if cfg.DrainSlack <= 0 {
		cfg.DrainSlack = 6 * time.Hour
	}

	// Target the largest group (first on ties — deterministic in plan
	// order).
	groups := dep.Groups()
	if len(groups) == 0 {
		return nil, fmt.Errorf("grayfail: empty deployment")
	}
	target := groups[0]
	for _, g := range groups[1:] {
		if len(g.Members) > len(target.Members) {
			target = g
		}
	}
	sched := cfg.Slowdowns
	if sched == nil {
		sched = BuildSlowdowns(target, cfg)
	}
	if err := ValidateSlowdowns(sched, cfg.From, cfg.To); err != nil {
		return nil, err
	}
	res := &GrayFailResult{
		Group:     target.Plan.ID,
		Schedule:  sched,
		GrayArmed: target.Gray != nil,
		MinRTTTP:  1,
	}
	if err := applySlowdowns(eng, dep, sched); err != nil {
		return nil, err
	}

	// Stream every member's logged traffic, in member order.
	logByID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		logByID[tl.Tenant.ID] = tl
	}
	var members []*workload.TenantLog
	for _, tn := range target.Members {
		if tl := logByID[tn.ID]; tl != nil {
			members = append(members, tl)
		}
	}
	arrivals, err := workload.NewStream(cat, members, cfg.From, cfg.To)
	if err != nil {
		return nil, fmt.Errorf("grayfail: %w", err)
	}
	arrivals.Drive(eng, func(a workload.Arrival) {
		res.Submitted++
		sla := sim.Time(float64(a.SLATarget) * cfg.SLASlack)
		if _, err := target.Router.SubmitWithTarget(a.Tenant, a.Class, sla); err != nil {
			res.Errors++
		}
	})

	// Sample the target group's RT-TTP through the window.
	var sample func(sim.Time)
	sample = func(sim.Time) {
		if rt := target.Monitor.RTTTP(); rt < res.MinRTTTP {
			res.MinRTTTP = rt
		}
		if next := eng.Now().Add(cfg.SampleEvery); next < cfg.To {
			eng.Schedule(next, sample)
		}
	}
	eng.Schedule(cfg.From, sample)

	eng.Run(cfg.To)
	eng.Run(cfg.To.Add(cfg.DrainSlack))

	// Condense: detector ladder, hedge tallies, SLA attainment over the
	// target's members, and the pool leak check.
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
	if target.Recovery != nil {
		res.CrashInFlight = target.Recovery.InProgress()
	}
	for _, g := range dep.Groups() {
		for _, inst := range g.Instances {
			res.ExpectedActive += inst.Nodes()
			if inst.Slowdown() != 1 {
				res.ResidualSlow++
			}
		}
	}
	var met, missed int64
	res.MinAttainment = 1
	byTenant := make(map[string]struct {
		met, missed int64
		attainment  float64
	})
	for _, tn := range dep.Telemetry().SLA.Report() {
		byTenant[tn.Tenant] = struct {
			met, missed int64
			attainment  float64
		}{tn.Met, tn.Missed, tn.Attainment}
	}
	for _, tn := range target.Members {
		s, ok := byTenant[tn.ID]
		if !ok {
			continue
		}
		met += s.met
		missed += s.missed
		if s.attainment < res.MinAttainment {
			res.MinAttainment = s.attainment
		}
	}
	if met+missed > 0 {
		res.Attainment = float64(met) / float64(met+missed)
	} else {
		res.Attainment = 1
	}
	pool := dep.Pool()
	res.ActiveNodes = pool.CountState(cluster.Active)
	res.FailedNodes = pool.CountState(cluster.Failed)
	res.RepairingNodes = pool.CountState(cluster.Repairing)
	return res, nil
}
