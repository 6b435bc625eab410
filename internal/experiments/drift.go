package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DriftConfig parameterizes the churn and activity-shift schedule of the
// drift experiment.
type DriftConfig struct {
	// Window is the replayed interval. No re-consolidation cycle (§3c) falls
	// inside it.
	Window sim.Time
	// Joins is how many reserve tenants register during the window (one
	// every two hours from JoinStart).
	Joins int
	// Leaves is how many deployed tenants de-register during the window
	// (one every three hours from LeaveStart).
	Leaves int
	// JoinStart, LeaveStart anchor the churn schedule.
	JoinStart, LeaveStart sim.Time
	// TakeOverStart is when the §7.5 activity shift begins: one deployed
	// tenant turns continuously active and drifts away from its planned
	// profile.
	TakeOverStart sim.Time
}

// DefaultDriftConfig returns the standard one-day drift schedule.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		Window:        sim.Day,
		Joins:         2,
		Leaves:        2,
		JoinStart:     2 * sim.Hour,
		LeaveStart:    5 * sim.Hour,
		TakeOverStart: 6 * sim.Hour,
	}
}

// worstMemberMin is how many completed queries a tenant needs before its own
// attainment counts towards DriftArm.WorstMember.
const worstMemberMin = 20

// DriftArm is one arm's outcome over the window.
type DriftArm struct {
	// Submitted / SubmitErrors / Completed account every query of the run
	// (replayed, take-over, joiner, and leaver submissions combined).
	Submitted, SubmitErrors, Completed int
	// JoinerArrivals and JoinerRejected count the joiners' submissions and
	// the ones rejected: a joiner waits for the next re-consolidation cycle,
	// so until then no group routes it.
	JoinerArrivals, JoinerRejected int
	// Attainment is the per-query SLA attainment; WorstMember is the lowest
	// per-tenant attainment among tenants with at least worstMemberMin
	// completed queries, and WorstTenant that tenant.
	Attainment, WorstMember float64
	WorstTenant             string
	// NodeHours integrates the pool's active nodes, sampled every 10 min
	// over the window.
	NodeHours float64
	// Scaling is every §5.1 scaling action (empty for the static arm).
	Scaling []scaling.Event
	// Hash fingerprints the run's telemetry (events + trace): equal seeds
	// must produce equal hashes.
	Hash string
}

// NoDrop reports whether every accepted query completed.
func (a *DriftArm) NoDrop() bool {
	return a.Completed == a.Submitted-a.SubmitErrors
}

// Moved returns how many tenants the scaler carved onto a new MPPDB.
func (a *DriftArm) Moved() int {
	n := 0
	for _, ev := range a.Scaling {
		if ev.Err == "" {
			n += len(ev.OverActive)
		}
	}
	return n
}

// DriftResult is the outcome of the drift scenario: the same churn and
// take-over replayed against a static deployment and against the paper's
// loop (the §5.1 scaler armed; joiners and leavers wait for the next §3c
// cycle).
type DriftResult struct {
	Static, Paper *DriftArm
	// Victim is the taken-over tenant; Joined and Left are the churned IDs.
	Victim string
	Joined []string
	Left   []string
}

// driftWorld is the setup both arms share.
type driftWorld struct {
	subWorld // initially deployed population
	acfg     advisor.Config
	joiners  []*workload.TenantLog
	leavers  []*workload.TenantLog
	victim   string
}

// buildDriftWorld plans the default population and carves the experiment's
// sub-world: the largest groups get deployed, reserve tenants from other
// groups become joiners, members of the last-picked group become leavers,
// and the largest group's first member is the take-over victim.
func buildDriftWorld(env *Env, cfg DriftConfig) (*driftWorld, error) {
	acfg := advisor.DefaultConfig()
	logs, plan, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}
	ranked := rank(plan, largestFirst(plan))
	picked := top(ranked, env.Scale.ReplayGroups)
	w := &driftWorld{subWorld: carve(plan, logs, picked), acfg: acfg}
	if len(w.plan.Groups) == 0 {
		return nil, fmt.Errorf("drift: the plan has no groups")
	}
	logByID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		logByID[tl.Tenant.ID] = tl
	}
	// Joiners: reserve tenants from groups outside the sub-world.
	for _, gi := range ranked[len(picked):] {
		for _, id := range plan.Groups[gi].TenantIDs {
			if len(w.joiners) < cfg.Joins {
				w.joiners = append(w.joiners, logByID[id])
			}
		}
	}
	w.victim = w.plan.Groups[0].TenantIDs[0]
	// Leavers: from the last picked group, never the victim.
	last := w.plan.Groups[len(w.plan.Groups)-1]
	for _, id := range last.TenantIDs {
		if len(w.leavers) < cfg.Leaves && id != w.victim {
			w.leavers = append(w.leavers, logByID[id])
		}
	}
	return w, nil
}

// telemetryHash fingerprints a deployment's event log and trace.
func telemetryHash(dep *master.Deployment) string {
	h := sha256.New()
	tel := dep.Telemetry()
	if tel != nil {
		tel.Events.Dump(h)
		tel.Tracer.Dump(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDrift replays the window against the initial sub-plan: the victim's
// take-over, the leavers' traffic up to their departure and the joiners'
// traffic from their registration. Nothing re-plans inside the window, so a
// leaver stays deployed (and idle) and a joiner's arrivals are rejected.
// scaler, when non-nil, arms the §5.1 scaler — the one difference between
// the static and the paper arm.
func runDrift(env *Env, cfg DriftConfig, w *driftWorld, scaler *scaling.Config) (*DriftArm, error) {
	pool := cluster.NewPool(w.plan.NodesUsed() + 64)
	eng, dep, err := w.deploy(pool, master.Options{Immediate: true, ParallelLoad: true, MonitorWindow: 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	arm := &DriftArm{}
	var joiners, leavers replay.Counts
	for i, jl := range w.joiners {
		at := cfg.JoinStart + sim.Time(i)*2*sim.Hour
		if err := replay.Attach(eng, dep, env.Cat, []*workload.TenantLog{jl}, at, cfg.Window, nil, &joiners); err != nil {
			return nil, err
		}
	}
	leaving := map[string]bool{}
	for i, ll := range w.leavers {
		leaving[ll.Tenant.ID] = true
		at := cfg.LeaveStart + sim.Time(i)*3*sim.Hour
		if err := replay.Attach(eng, dep, env.Cat, []*workload.TenantLog{ll}, 0, at, nil, &leavers); err != nil {
			return nil, err
		}
	}
	var steady []*workload.TenantLog
	for _, tl := range w.logs {
		if !leaving[tl.Tenant.ID] {
			steady = append(steady, tl)
		}
	}
	const every = 10 * time.Minute
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		arm.NodeHours += float64(pool.CountState(cluster.Active)) * every.Hours()
		if next := now.Add(every); next < cfg.Window {
			eng.Schedule(next, sample)
		}
	}
	eng.Schedule(0, sample)
	rep, err := replay.Run(eng, dep, env.Cat, steady, replay.Options{
		From:        0,
		To:          cfg.Window,
		SampleEvery: time.Hour,
		Scaling:     scaler,
		TakeOver: &replay.TakeOver{
			Tenant:   w.victim,
			Start:    cfg.TakeOverStart,
			Interval: 3 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		return nil, err
	}
	arm.Submitted = rep.Submitted + joiners.Submitted + leavers.Submitted
	arm.SubmitErrors = rep.SubmitErrors + joiners.SubmitErrors + leavers.SubmitErrors
	arm.JoinerArrivals, arm.JoinerRejected = joiners.Submitted, joiners.SubmitErrors
	arm.Completed = len(rep.Records)
	arm.Attainment = rep.SLAAttainment()
	arm.WorstMember, arm.WorstTenant = worstMember(rep.Records)
	arm.Scaling = rep.ScalingEvents
	arm.Hash = telemetryHash(dep)
	return arm, nil
}

// worstMember returns the lowest per-tenant SLA attainment among tenants
// with at least worstMemberMin completed queries (1 and "" when none has).
func worstMember(recs []monitor.QueryRecord) (float64, string) {
	type tally struct{ n, met int }
	by := map[string]*tally{}
	for _, r := range recs {
		t := by[r.Tenant]
		if t == nil {
			t = &tally{}
			by[r.Tenant] = t
		}
		t.n++
		if r.SLAMet() {
			t.met++
		}
	}
	ids := make([]string, 0, len(by))
	for id := range by {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	worst, who := 1.0, ""
	for _, id := range ids {
		if t := by[id]; t.n >= worstMemberMin {
			if a := float64(t.met) / float64(t.n); a < worst {
				worst, who = a, id
			}
		}
	}
	return worst, who
}

// DriftOutcome runs the drift scenario's static and paper arms.
func DriftOutcome(env *Env, cfg DriftConfig) (*DriftResult, error) {
	w, err := buildDriftWorld(env, cfg)
	if err != nil {
		return nil, err
	}
	res := &DriftResult{Victim: w.victim}
	for _, jl := range w.joiners {
		res.Joined = append(res.Joined, jl.Tenant.ID)
	}
	for _, ll := range w.leavers {
		res.Left = append(res.Left, ll.Tenant.ID)
	}
	if res.Static, err = runDrift(env, cfg, w, nil); err != nil {
		return nil, err
	}
	scfg := scaling.DefaultConfig(w.acfg.P, w.acfg.R)
	if res.Paper, err = runDrift(env, cfg, w, &scfg); err != nil {
		return nil, err
	}
	return res, nil
}

// Drift replays a day in which tenants join and leave mid-flight and one
// tenant's activity shifts (the §7.5 take-over), against the deployment the
// plan left in place (static) and against the paper's own answer: the §5.1
// lightweight scaler carves over-active tenants onto a new MPPDB, and churn
// waits for the next §3c re-consolidation cycle, which falls outside the
// window.
func Drift(env *Env) ([]*Table, error) {
	cfg := DefaultDriftConfig()
	res, err := DriftOutcome(env, cfg)
	if err != nil {
		return nil, err
	}
	outcome := &Table{
		Title: fmt.Sprintf("Drift — static deployment vs the paper's loop (victim %s, %d joins, %d leaves, window %v)",
			res.Victim, len(res.Joined), len(res.Left), cfg.Window),
		Columns: []string{"metric", "static", "paper (§5.1 scaler)"},
	}
	row := func(name string, f func(a *DriftArm) any) {
		outcome.AddRow(name, f(res.Static), f(res.Paper))
	}
	row("queries submitted", func(a *DriftArm) any { return a.Submitted })
	row("joiner arrivals rejected (wait for the cycle)", func(a *DriftArm) any {
		return fmt.Sprintf("%d of %d", a.JoinerRejected, a.JoinerArrivals)
	})
	row("other submit rejects", func(a *DriftArm) any { return a.SubmitErrors - a.JoinerRejected })
	row("queries completed", func(a *DriftArm) any { return a.Completed })
	row("no dropped queries", func(a *DriftArm) any {
		if a.NoDrop() {
			return "PASS"
		}
		return fmt.Sprintf("FAIL: %d accepted, %d completed", a.Submitted-a.SubmitErrors, a.Completed)
	})
	row("per-query SLA attainment", func(a *DriftArm) any { return fmt.Sprintf("%.2f%%", 100*a.Attainment) })
	row(fmt.Sprintf("worst member (≥ %d queries)", worstMemberMin), func(a *DriftArm) any {
		return fmt.Sprintf("%.1f%% (%s)", 100*a.WorstMember, a.WorstTenant)
	})
	row("node-hours", func(a *DriftArm) any { return fmt.Sprintf("%.0f", a.NodeHours) })
	row("tenants moved", func(a *DriftArm) any { return a.Moved() })
	row("telemetry hash", func(a *DriftArm) any { return a.Hash[:16] })

	actions := &Table{
		Title:   "Drift — §5.1 scaling actions (paper arm)",
		Columns: []string{"group", "detected", "RT-TTP", "over-active", "new MPPDB", "nodes", "ready", "err"},
	}
	for _, ev := range res.Paper.Scaling {
		actions.AddRow(ev.Group, ev.Detected.String(), fmt.Sprintf("%.4f", ev.RTTTP),
			fmt.Sprint(ev.OverActive), ev.MPPDB, ev.Nodes, ev.Ready.String(), ev.Err)
	}
	return []*Table{outcome, actions}, nil
}
