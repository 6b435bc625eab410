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
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// slowWorld builds a bare deployment for fail-slow storms, on a doubled
// pool so the crashes composed with a slowdown have spares.
func slowWorld(t *testing.T, tenants, days int) *world {
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
	opts := master.Options{Immediate: true, MonitorWindow: time.Hour}
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

// slowStormConfig is a seeded 12-h run of the slowdowns alone.
func slowStormConfig(s Slowdowns) Config {
	// The crashes composed with a slowdown pay the Table 5.1 reload of the
	// group's data share.
	return Config{Seed: 11, Window: Window{To: 12 * sim.Hour, DrainSlack: 48 * time.Hour}, Faults: []Fault{s}}
}

// checkSLATotals checks the SLA accounting end to end through the monitor
// into the per-tenant report: exactly one counted record per submit that
// reached an MPPDB.
func checkSLATotals(t *testing.T, w *world, res *Result) {
	t.Helper()
	var met, missed int64
	for _, tn := range w.dep.Telemetry().SLA.Report() {
		met += tn.Met
		missed += tn.Missed
	}
	if got, want := int(met+missed), res.Report.Submitted-res.Report.SubmitErrors; got != want {
		t.Errorf("SLA report counts %d queries, want %d (submitted %d, errors %d)",
			got, want, res.Report.Submitted, res.Report.SubmitErrors)
	}
}

// TestGrayFailTelemetryDeterminism: two fresh same-seed fail-slow storms on
// the bare deployment pass the fault's bar and emit byte-identical
// telemetry, pinned by a golden pair.
func TestGrayFailTelemetryDeterminism(t *testing.T) {
	var sum, resSum string
	dump := func() (string, string) {
		w := slowWorld(t, 12, 2)
		res, err := Run(w.eng, w.dep, w.cat, w.logs, slowStormConfig(Slowdowns{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(w.plan.Config.P); err != nil {
			t.Fatalf("bare storm: %v", err)
		}
		checkSLATotals(t, w, res)
		hub := w.dep.Telemetry()
		sum = telemetrySum(t, hub)
		resSum = digest(res.Group, res.SlowSchedule, res.Report.Submitted, res.Report.SubmitErrors,
			res.Attainment, res.MinAttainment, res.MinRTTTP, res.InFlight, res.ResidualSlow,
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
		t.Fatal("same-seed slowdown runs emitted different event dumps")
	}
	if tr1 != tr2 {
		t.Fatal("same-seed slowdown runs emitted different trace dumps")
	}
	if len(ev1) == 0 {
		t.Fatal("slowdown run emitted no events")
	}
	checkGolden(t, "slowdown telemetry", sum, goldenSlowdownTelemetry)
	checkGolden(t, "slowdown result", resSum, goldenSlowdownResult)
}

// TestGraySmoke is a bounded CI gate (make fault-smoke): a short seeded
// storm against the bare deployment is served through and lifted, with the
// SLA accounting balanced.
func TestGraySmoke(t *testing.T) {
	// Two episodes evenly spaced through the 6-h window on seeded
	// instances of the largest group: stuck, then gradual.
	cfg := slowStormConfig(Slowdowns{Schedule: []Slowdown{
		{At: 75 * sim.Minute, Duration: 90 * time.Minute, Group: "TG-0000", Instance: 1,
			Profile: ProfileStuck, Factor: 0.25914774650010775, Steps: 4, Period: 15 * time.Minute},
		{At: 195 * sim.Minute, Duration: 90 * time.Minute, Group: "TG-0000", Instance: 0,
			Profile: ProfileGradual, Factor: 0.3315970922516648, Steps: 4, Period: 15 * time.Minute},
	}})
	cfg.To = 6 * sim.Hour
	cfg.DrainSlack = 36 * time.Hour
	w := slowWorld(t, 12, 1)
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatal(err)
	}
	if len(res.SlowSchedule) != 2 {
		t.Fatalf("%d episodes injected, want 2", len(res.SlowSchedule))
	}
	checkSLATotals(t, w, res)
}

// TestGrayDoubleFailureSoak overlaps a fail-slow episode with hard crashes
// on the bare deployment: while instance 0 of the target group is
// stuck-at-slow, instance 1 takes a crash, then a second one after the
// first reload lands. Every recovery completes, the pool ends leak-free,
// and no instance is left slow or quarantined.
func TestGrayDoubleFailureSoak(t *testing.T) {
	w := slowWorld(t, 12, 2)
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
	// Crash instance 1 mid-episode and again after the first reload has
	// finished (a two-node instance cannot lose its second node
	// mid-recovery).
	crash(90*sim.Minute, target.Instances[1])
	crash(30*sim.Hour, target.Instances[1])

	cfg := slowStormConfig(Slowdowns{Schedule: []Slowdown{{
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
		t.Fatalf("double-failure soak: %v", err)
	}
	if res.QuarantinedEnd != 0 {
		t.Errorf("%d instances still quarantined at the end", res.QuarantinedEnd)
	}
	evs := target.Recovery.Events()
	if len(evs) != 2 {
		t.Fatalf("%d recovery events, want 2 (one per crash): %+v", len(evs), evs)
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
	w := slowWorld(t, 6, 1)
	run := func(win Window, s Slowdowns) error {
		_, err := Run(w.eng, w.dep, w.cat, w.logs, Config{Seed: 1, Window: win, Faults: []Fault{s}})
		return err
	}
	hour := Window{To: sim.Hour}
	if run(Window{}, Slowdowns{}) == nil {
		t.Fatal("empty window accepted")
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
