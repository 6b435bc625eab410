package chaos

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// testGrayConfig tunes the detector for the test worlds' sparse traffic: a
// short sample window so the profile mean tracks an onset within a few
// completions, and drain patience longer than any injected episode so
// transient gray resolves by hedging while genuinely stuck instances (the
// soak test shortens DrainAfter) still reach the drain rung.
func testGrayConfig() recovery.GrayConfig {
	cfg := recovery.DefaultGrayConfig()
	cfg.Window = 16
	cfg.MinSamples = 4
	cfg.ConfirmBeats = 2
	cfg.DrainAfter = 4 * time.Hour
	return cfg
}

// grayWorld builds a deployment for fail-slow storms. A non-nil
// gray config arms the per-group detector (which auto-arms the crash
// controller its drain rung executes through); the pool is doubled so
// drain-and-replace has spares.
func grayWorld(t *testing.T, tenants, days int, gray *recovery.GrayConfig) *world {
	t.Helper()
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, []int{2}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pop, err := tenant.Population(rng, tenants, 0.8, []int{2}, tenant.ZoneOffsets)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := workload.DefaultComposeConfig(3)
	ccfg.Days = days
	ccfg.Holidays = 0
	logs, err := workload.Compose(lib, pop, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := advisor.DefaultConfig()
	acfg.R = 2
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, ccfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	opts := master.Options{Immediate: true, MonitorWindow: time.Hour, Gray: gray}
	eng := sim.NewEngine()
	pool := cluster.NewPool(2 * plan.NodesUsed())
	m := master.New(pool, opts)
	byID := map[string]*tenant.Tenant{}
	for _, tn := range pop {
		byID[tn.ID] = tn
	}
	dep, err := m.Deploy(plan, byID)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, cat: cat, dep: dep, logs: logs, plan: plan}
}

// grayStormConfig is a seeded 12-h run of the slowdowns alone.
func grayStormConfig(s Slowdowns) Config {
	// Drain-and-replace pays the Table 5.1 reload of the group's data share.
	return Config{Seed: 11, Window: Window{To: 12 * sim.Hour, DrainSlack: 48 * time.Hour}, Faults: []Fault{s}}
}

// slaTotals sums met/missed over the deployment's per-tenant SLA report.
func slaTotals(w *world) (met, missed int64) {
	for _, tn := range w.dep.Telemetry().SLA.Report() {
		met += tn.Met
		missed += tn.Missed
	}
	return met, missed
}

// TestGrayFailLadder is the acceptance run: the identical seeded fail-slow
// storm against three fresh deployments — no faults at all, bare, and with
// the detector armed. The bare run has no ladder; the protected run must
// confirm episodes, hedge queries, finish every drain, leave the pool
// leak-free, and restore attainment to within a point of the no-fault
// baseline. The SLA accounting must balance exactly — hedged duplicates
// never double-count.
func TestGrayFailLadder(t *testing.T) {
	cfg := grayStormConfig(Slowdowns{})

	base := grayWorld(t, 12, 2, nil)
	p := base.plan.Config.P
	// An explicit empty schedule: the no-fault arm.
	baseRes, err := Run(base.eng, base.dep, base.cat, base.logs, grayStormConfig(Slowdowns{Schedule: []Slowdown{}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := baseRes.Verify(p); err != nil {
		t.Fatalf("no-fault baseline: %v", err)
	}

	bare := grayWorld(t, 12, 2, nil)
	bareRes, err := Run(bare.eng, bare.dep, bare.cat, bare.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bareRes.GrayArmed {
		t.Fatal("bare run unexpectedly has the detector armed")
	}
	if bareRes.Suspected != 0 || bareRes.Hedged != 0 {
		t.Fatalf("bare run shows detector activity: %d suspected, %d hedged",
			bareRes.Suspected, bareRes.Hedged)
	}
	if err := bareRes.Verify(p); err != nil {
		t.Fatalf("bare run: %v", err)
	}

	gcfg := testGrayConfig()
	prot := grayWorld(t, 12, 2, &gcfg)
	protRes, err := Run(prot.eng, prot.dep, prot.cat, prot.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !protRes.GrayArmed {
		t.Fatal("protected run has no detector")
	}
	if err := protRes.Verify(p); err != nil {
		t.Fatalf("protected run: %v (events %+v)", err, protRes.GrayEvents)
	}
	if protRes.Hedged == 0 {
		t.Fatal("protected run never hedged a query")
	}
	if protRes.Attainment < baseRes.Attainment-0.01 {
		t.Errorf("protected attainment %.4f more than a point below no-fault %.4f (bare %.4f)",
			protRes.Attainment, baseRes.Attainment, bareRes.Attainment)
	}
	// Hedge accounting: exactly one SLA-counted record per successful submit,
	// end to end through the monitor into the per-tenant report.
	met, missed := slaTotals(prot)
	if got, want := int(met+missed), protRes.Report.Submitted-protRes.Report.SubmitErrors; got != want {
		t.Errorf("SLA report counts %d queries, want %d (submitted %d, errors %d) — hedges double-counted?",
			got, want, protRes.Report.Submitted, protRes.Report.SubmitErrors)
	}
	t.Logf("attainment no-fault %.4f / bare %.4f / protected %.4f; episodes %d/%d/%d; hedged %d (%d peer wins)",
		baseRes.Attainment, bareRes.Attainment, protRes.Attainment,
		protRes.Suspected, protRes.Confirmed, protRes.Drained, protRes.Hedged, protRes.HedgeWins)
}

// TestGrayFailTelemetryDeterminism: two fresh same-seed protected storms emit
// byte-identical telemetry — the whole ladder (hedging, cancellation, drain,
// reload) preserves the determinism contract.
func TestGrayFailTelemetryDeterminism(t *testing.T) {
	var sum, resSum string
	dump := func() (string, string) {
		gcfg := testGrayConfig()
		w := grayWorld(t, 12, 2, &gcfg)
		res, err := Run(w.eng, w.dep, w.cat, w.logs, grayStormConfig(Slowdowns{}))
		if err != nil {
			t.Fatal(err)
		}
		hub := w.dep.Telemetry()
		sum = telemetrySum(t, hub)
		resSum = digest(res.Group, res.SlowSchedule, res.GrayArmed, res.Report.Submitted, res.Report.SubmitErrors,
			res.Attainment, res.MinAttainment, res.MinRTTTP, res.GrayEvents,
			res.Suspected, res.Confirmed, res.Drained, res.Hedged, res.HedgeWins,
			res.InFlight, res.ResidualSlow,
			res.ExpectedActive, res.ActiveNodes, res.FailedNodes, res.RepairingNodes)
		var ev, tr bytes.Buffer
		if err := hub.Events.Dump(&ev); err != nil {
			t.Fatal(err)
		}
		if err := hub.Tracer.Dump(&tr); err != nil {
			t.Fatal(err)
		}
		return ev.String(), tr.String()
	}
	ev1, tr1 := dump()
	ev2, tr2 := dump()
	if ev1 != ev2 {
		t.Fatal("same-seed gray-fail runs emitted different event dumps")
	}
	if tr1 != tr2 {
		t.Fatal("same-seed gray-fail runs emitted different trace dumps")
	}
	if len(ev1) == 0 {
		t.Fatal("gray-fail run emitted no events")
	}
	checkGolden(t, "gray-fail telemetry", sum, goldenGrayTelemetry)
	checkGolden(t, "gray-fail result", resSum, goldenGrayResult)
}

// TestGraySmoke is a bounded CI gate (make fault-smoke): a short seeded
// storm against a protected deployment must be confirmed and contained.
func TestGraySmoke(t *testing.T) {
	slow := Slowdowns{}
	slow.Episodes = 2
	cfg := grayStormConfig(slow)
	cfg.To = 6 * sim.Hour
	cfg.DrainSlack = 36 * time.Hour
	gcfg := testGrayConfig()
	w := grayWorld(t, 12, 1, &gcfg)
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatal(err)
	}
	if res.Hedged == 0 {
		t.Fatalf("smoke storm never hedged: %+v", res)
	}
	met, missed := slaTotals(w)
	if got, want := int(met+missed), res.Report.Submitted-res.Report.SubmitErrors; got != want {
		t.Fatalf("SLA report counts %d queries, want %d", got, want)
	}
}

// TestGrayDoubleFailureSoak overlaps a fail-slow episode with hard crashes:
// while instance 0 of the target group is stuck-at-slow (and the ladder
// drains it), instance 1 takes a crash, then a second one after the first
// reload lands. The ladder and the crash controller share the pool and the
// group without tripping over each other: every recovery completes, the
// pool ends leak-free, and no instance is left slow or quarantined.
func TestGrayDoubleFailureSoak(t *testing.T) {
	gcfg := testGrayConfig()
	gcfg.DrainAfter = 30 * time.Minute // eager: the stuck episode must reach the drain rung
	w := grayWorld(t, 12, 2, &gcfg)
	groups := w.dep.Groups()
	target := groups[0]
	for _, g := range groups[1:] {
		if len(g.Members) > len(target.Members) {
			target = g
		}
	}
	if len(target.Instances) < 2 {
		t.Fatalf("target group has %d instances, need 2 for a double failure", len(target.Instances))
	}

	crash := func(at sim.Time, inst interface {
		FailNode() error
		ID() string
	}) {
		w.eng.Schedule(at, func(sim.Time) {
			if err := inst.FailNode(); err != nil {
				t.Errorf("FailNode at %v: %v", at, err)
				return
			}
			if _, err := w.dep.Pool().FailAny(inst.ID()); err != nil {
				t.Errorf("FailAny at %v: %v", at, err)
			}
			target.Recovery.Detect()
		})
	}
	// Crash instance 1 mid-episode — while the ladder is draining its stuck
	// peer — and again after the first reload has finished (a two-node
	// instance cannot lose its second node mid-recovery).
	crash(90*sim.Minute, target.Instances[1])
	crash(30*sim.Hour, target.Instances[1])

	cfg := grayStormConfig(Slowdowns{Schedule: []Slowdown{{
		At: sim.Hour, Duration: 3 * time.Hour,
		Group: target.Plan.ID, Instance: 0,
		Profile: ProfileStuck, Factor: 0.25,
	}}})
	cfg.DrainSlack = 72 * time.Hour
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatalf("double-failure soak: %v (gray events %+v)", err, res.GrayEvents)
	}
	if res.Drained == 0 {
		t.Errorf("stuck instance never reached the drain rung: %+v", res.GrayEvents)
	}
	if target.Recovery == nil {
		t.Fatal("protected group has no crash controller")
	}
	evs := target.Recovery.Events()
	if len(evs) < 3 {
		t.Fatalf("%d recovery events, want >= 3 (two crash lifecycles + gray drain): %+v", len(evs), evs)
	}
	for _, ev := range evs {
		if !ev.Recovered() {
			t.Errorf("recovery of %s (detected %v) never completed", ev.MPPDB, ev.Detected)
		}
	}
}

// TestSlowdownScheduleValidation: every malformed schedule is rejected with
// a typed *ScheduleError carrying a stable reason, before anything runs.
func TestSlowdownScheduleValidation(t *testing.T) {
	from, to := sim.Time(0), 12*sim.Hour
	ok := Slowdown{At: sim.Hour, Duration: time.Hour, Group: "TG-0000",
		Profile: ProfileStuck, Factor: 0.3}
	cases := []struct {
		name   string
		reason string
		mut    func(*Slowdown)
	}{
		{"zero duration", "zero_duration", func(s *Slowdown) { s.Duration = 0 }},
		{"negative duration", "zero_duration", func(s *Slowdown) { s.Duration = -time.Hour }},
		{"starts before window", "out_of_horizon", func(s *Slowdown) { s.At = -sim.Hour }},
		{"ends after window", "out_of_horizon", func(s *Slowdown) { s.At = to - sim.Minute }},
		{"factor zero", "bad_factor", func(s *Slowdown) { s.Factor = 0 }},
		{"factor at speedup", "bad_factor", func(s *Slowdown) { s.Factor = 1.2 }},
		{"unknown profile", "bad_profile", func(s *Slowdown) { s.Profile = "meltdown" }},
		{"gradual without steps", "bad_steps", func(s *Slowdown) { s.Profile = ProfileGradual; s.Steps = 0 }},
		{"flapping without period", "bad_period", func(s *Slowdown) { s.Profile = ProfileFlapping; s.Period = 0 }},
		{"flapping period too long", "bad_period", func(s *Slowdown) {
			s.Profile = ProfileFlapping
			s.Period = 2 * time.Hour
		}},
	}
	for _, tc := range cases {
		s := ok
		tc.mut(&s)
		err := ValidateSlowdowns([]Slowdown{s}, from, to)
		var se *ScheduleError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want *ScheduleError", tc.name, err)
			continue
		}
		if se.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, se.Reason, tc.reason)
		}
		if se.Index != 0 {
			t.Errorf("%s: index %d, want 0", tc.name, se.Index)
		}
	}

	// Overlap on the same (group, instance) is rejected; the same window on
	// a different instance is fine.
	second := ok
	second.At = ok.At + 30*sim.Minute
	err := ValidateSlowdowns([]Slowdown{ok, second}, from, to)
	var se *ScheduleError
	if !errors.As(err, &se) || se.Reason != "overlap" {
		t.Errorf("overlapping schedule: %v, want overlap ScheduleError", err)
	}
	second.Instance = 1
	if err := ValidateSlowdowns([]Slowdown{ok, second}, from, to); err != nil {
		t.Errorf("disjoint-instance schedule rejected: %v", err)
	}
	if err := ValidateSlowdowns([]Slowdown{ok}, from, to); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestGrayFailValidation rejects malformed slowdowns and bad targets
// before any injection runs.
func TestGrayFailValidation(t *testing.T) {
	w := grayWorld(t, 6, 1, nil)
	run := func(win Window, s Slowdowns) error {
		_, err := Run(w.eng, w.dep, w.cat, w.logs, Config{Seed: 1, Window: win, Faults: []Fault{s}})
		return err
	}
	hour := Window{To: sim.Hour}
	if run(Window{}, Slowdowns{}) == nil {
		t.Fatal("empty window accepted")
	}
	bad := Slowdowns{}
	bad.Factor = 1
	if run(hour, bad) == nil {
		t.Fatal("Factor outside (0.05,0.95) accepted")
	}
	// Unresolvable targets surface as typed schedule errors.
	var se *ScheduleError
	err := run(hour, Slowdowns{Schedule: []Slowdown{{
		At: 0, Duration: time.Hour, Group: "TG-NOPE", Profile: ProfileStuck, Factor: 0.3,
	}}})
	if !errors.As(err, &se) || se.Reason != "bad_target" {
		t.Errorf("unknown group: %v, want bad_target ScheduleError", err)
	}
	gid := w.dep.Groups()[0].Plan.ID
	err = run(hour, Slowdowns{Schedule: []Slowdown{{
		At: 0, Duration: time.Hour, Group: gid, Instance: 99, Profile: ProfileStuck, Factor: 0.3,
	}}})
	if !errors.As(err, &se) || se.Reason != "bad_target" {
		t.Errorf("out-of-range instance: %v, want bad_target ScheduleError", err)
	}
	if w.eng.Pending() != 0 {
		t.Errorf("%d events scheduled by rejected runs", w.eng.Pending())
	}
}
