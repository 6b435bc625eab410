// Package chaos is the failure-injection harness for the §4.4 recovery loop:
// it derives a randomized-but-seeded failure schedule (lone crashes, repeat
// crashes mid-recovery, cross-group bursts) against a live deployment, drives
// a workload replay under it, and condenses the outcome into the two checks
// that matter — the time-based SLA guarantee held (every group's sampled
// RT-TTP stayed ≥ the plan's P), and the node pool came back leak-free
// (every carted-away node re-imaged, every replacement accounted for).
//
// The schedule is a pure function of (deployment shape, Config): with a fixed
// Seed it is identical run to run, so a chaos run is as replayable as any
// other experiment.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
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

// Window is what every harness config shares with the replay it runs,
// declared once and embedded in each: perturbations land inside [From, To),
// and the post-window drain gives recoveries, re-images and queued claims
// time to settle before the pool is tallied.
type Window struct {
	// From and To bound the run window.
	From, To sim.Time
	// SampleEvery is the RT-TTP sampling period (default 10 min).
	SampleEvery time.Duration
	// DrainSlack extends the post-window settle time; each harness names its
	// default. Groups with long Table 5.1 reloads need enough to finish
	// recovering.
	DrainSlack time.Duration
}

// validate rejects an empty window, in the named harness's voice.
func (w Window) validate(harness string) error {
	if w.To <= w.From {
		return fmt.Errorf("%s: window [%v,%v)", harness, w.From, w.To)
	}
	return nil
}

// options starts the replay options of a run over the window; drain is the
// harness's default settle time (zero: the replay's own, one day).
func (w Window) options(drain time.Duration) replay.Options {
	if w.DrainSlack <= 0 {
		w.DrainSlack = drain
	}
	return replay.Options{From: w.From, To: w.To, SampleEvery: w.SampleEvery, DrainSlack: w.DrainSlack}
}

// SLOSlack scales each replayed query's logged duration into its SLO target
// in the storm harnesses. The logged duration is the zero-headroom
// pre-consolidation latency, and the advisor's P guarantee already prices in
// transient <=(1-P) overflow windows — a slack of 2.5 forgives worst-case
// full-duration sharing with a single co-tenant (processor sharing doubles
// latency) and flags only the sustained pile-ups a storm causes.
const SLOSlack = 2.5

// slackTarget is a logged duration as a storm harness's SLO target.
func slackTarget(logged sim.Time) sim.Time { return sim.Time(float64(logged) * SLOSlack) }

// submitWithSlack is the storm harnesses' submit hook: the replay's default
// routing, with the SLO slack on the target.
func submitWithSlack(a workload.Arrival, g *master.DeployedGroup, ref tenant.Ref) error {
	_, err := g.Router.SubmitRef(ref, a.Class, slackTarget(a.SLATarget))
	return err
}

// stormTarget checks what the three storm harnesses need of a deployment —
// a coordinator engine to schedule their perturbation on — and returns its
// groups.
func stormTarget(harness string, eng *sim.Engine, dep *master.Deployment) ([]*master.DeployedGroup, error) {
	if eng == nil {
		return nil, fmt.Errorf("%s: nil engine", harness)
	}
	groups := dep.Groups()
	if len(groups) == 0 {
		return nil, fmt.Errorf("%s: empty deployment", harness)
	}
	return groups, nil
}

// largest returns the group with the most members (first on ties —
// deterministic in plan order).
func largest(groups []*master.DeployedGroup) *master.DeployedGroup {
	target := groups[0]
	for _, g := range groups[1:] {
		if len(g.Members) > len(target.Members) {
			target = g
		}
	}
	return target
}

// memberLogs returns the logs of the groups' members, in group then member
// order — the order that breaks ties between simultaneous arrivals.
func memberLogs(groups []*master.DeployedGroup, logs []*workload.TenantLog) []*workload.TenantLog {
	byID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		byID[tl.Tenant.ID] = tl
	}
	var out []*workload.TenantLog
	for _, g := range groups {
		for _, tn := range g.Members {
			if tl := byID[tn.ID]; tl != nil {
				out = append(out, tl)
			}
		}
	}
	return out
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

// PoolTally is the node-pool leak check every harness ends on: the node count
// the deployment's instances own against the pool's end-state tallies.
type PoolTally struct {
	ExpectedActive, ActiveNodes, FailedNodes, RepairingNodes int
}

// tallyPool reads the leak check off the deployment after a run.
func tallyPool(dep *master.Deployment) PoolTally {
	var t PoolTally
	for _, g := range dep.Groups() {
		g.Domain().Do(func(*sim.Engine) {
			for _, inst := range g.Instances {
				t.ExpectedActive += inst.Nodes()
			}
		})
	}
	pool := dep.Pool()
	t.ActiveNodes = pool.CountState(cluster.Active)
	t.FailedNodes = pool.CountState(cluster.Failed)
	t.RepairingNodes = pool.CountState(cluster.Repairing)
	return t
}

// leak reports a pool that did not come back whole: active matches the
// deployment, nothing stuck failed or mid-re-image.
func (t PoolTally) leak(harness string) error {
	if t.ActiveNodes != t.ExpectedActive || t.FailedNodes != 0 || t.RepairingNodes != 0 {
		return fmt.Errorf("%s: pool leak — active %d (want %d), failed %d, repairing %d",
			harness, t.ActiveNodes, t.ExpectedActive, t.FailedNodes, t.RepairingNodes)
	}
	return nil
}

// Config parameterizes a chaos run. Its drain defaults to one day.
type Config struct {
	// Seed fixes the schedule's randomness.
	Seed int64
	// Window bounds the replay; failures land inside it.
	Window
	// MeanBetween is the mean gap between failure instants (exponentially
	// distributed).
	MeanBetween time.Duration
	// RepeatProb is the chance a crash is followed by a second crash of the
	// same instance RepeatDelay later — typically while the first recovery
	// is still reloading.
	RepeatProb float64
	// RepeatDelay is the lag of the repeat crash.
	RepeatDelay time.Duration
	// BurstProb is the chance a failure instant hits every group at once
	// instead of one.
	BurstProb float64
	// MaxFailures bounds the schedule.
	MaxFailures int
}

// DefaultConfig returns a moderate failure mix: a crash every ~2 h, a quarter
// of them repeated mid-recovery, one in ten a cross-group burst.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		MeanBetween: 2 * time.Hour,
		RepeatProb:  0.25,
		RepeatDelay: 10 * time.Minute,
		BurstProb:   0.1,
		MaxFailures: 16,
	}
}

func (c Config) validate() error {
	if err := c.Window.validate("chaos"); err != nil {
		return err
	}
	if c.MeanBetween <= 0 || c.MaxFailures < 1 {
		return fmt.Errorf("chaos: MeanBetween=%v MaxFailures=%d", c.MeanBetween, c.MaxFailures)
	}
	if c.RepeatProb > 0 && c.RepeatDelay <= 0 {
		return fmt.Errorf("chaos: RepeatProb without RepeatDelay")
	}
	return nil
}

// BuildSchedule derives the failure schedule for the deployment. It is
// deterministic in (deployment group order, cfg).
func BuildSchedule(dep *master.Deployment, cfg Config) []replay.Failure {
	rng := rand.New(rand.NewSource(cfg.Seed))
	groups := dep.Groups()
	var out []replay.Failure
	t := cfg.From
	for len(out) < cfg.MaxFailures {
		t = t.Add(time.Duration(rng.ExpFloat64() * float64(cfg.MeanBetween)))
		if t >= cfg.To {
			break
		}
		if rng.Float64() < cfg.BurstProb {
			for _, g := range groups {
				if len(out) >= cfg.MaxFailures {
					break
				}
				out = append(out, replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
			}
			continue
		}
		g := groups[rng.Intn(len(groups))]
		f := replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))}
		out = append(out, f)
		if len(out) < cfg.MaxFailures && rng.Float64() < cfg.RepeatProb {
			out = append(out, replay.Failure{At: t.Add(cfg.RepeatDelay), Group: f.Group, Instance: f.Instance})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Result condenses a chaos run.
type Result struct {
	// Report is the underlying replay's report.
	Report *replay.Report
	// Schedule is the injected failure schedule.
	Schedule []replay.Failure
	// Attainment is the run's per-query SLA attainment. Under failures it
	// dips — queries keep completing on degraded instances, just slower —
	// while the paper's actual guarantee (TTP over time, below) holds.
	Attainment float64
	// MinRTTTP is the lowest sampled RT-TTP across all groups — the §4.2
	// guarantee metric the plan's P bounds.
	MinRTTTP float64
	// Injected counts scheduled failures; Applied those that actually took a
	// node down (a repeat crash can be rejected when the instance is already
	// at its minimum); Recovered the completed recovery lifecycles.
	Injected, Applied, Recovered int
	// InFlight counts recoveries still pending at the end of the drain.
	InFlight int
	PoolTally
}

// Verify checks the acceptance bar: the SLA guarantee held (every group's
// sampled RT-TTP stayed at least p throughout — the thesis' time-based
// attainment, which degraded-but-serving instances preserve), every applied
// failure recovered, and the pool is leak-free — active matches the
// deployment, nothing stuck failed or mid-re-image.
func (r *Result) Verify(p float64) error {
	if r.MinRTTTP < p {
		return fmt.Errorf("chaos: RT-TTP dipped to %.4f < %.4f", r.MinRTTTP, p)
	}
	if r.Recovered < r.Applied {
		return fmt.Errorf("chaos: %d of %d applied failures recovered", r.Recovered, r.Applied)
	}
	if r.InFlight != 0 {
		return fmt.Errorf("chaos: %d recoveries still in flight", r.InFlight)
	}
	return r.leak("chaos")
}

// Run builds the schedule and replays the logs under it (replay injects the
// failures on their groups' engines, so eng may be nil). The post-window
// drain gives recoveries and re-images time to settle before the pool is
// tallied.
func Run(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched := BuildSchedule(dep, cfg)
	opts := cfg.options(0)
	opts.Failures = sched
	rep, err := replay.Run(eng, dep, cat, logs, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Report:     rep,
		Schedule:   sched,
		Attainment: rep.SLAAttainment(),
		MinRTTTP:   rep.WorstRTTTP(),
		Injected:   len(sched),
		PoolTally:  tallyPool(dep),
	}
	for _, fe := range rep.FailureEvents {
		if fe.Err == "" {
			res.Applied++
		}
	}
	for _, re := range rep.RecoveryEvents {
		if re.Recovered() {
			res.Recovered++
		}
	}
	for _, g := range dep.Groups() {
		g.Domain().Do(func(*sim.Engine) { res.InFlight += g.Recovery.InProgress() })
	}
	return res, nil
}
