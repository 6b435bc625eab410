package chaos

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

type world struct {
	eng  *sim.Engine
	cat  *queries.Catalog
	dep  *master.Deployment
	logs []*workload.TenantLog
	plan *advisor.Plan
}

// newWorld builds a consolidated deployment and its logs. poolFactor sizes
// the node pool as a multiple of the plan's footprint: 1 leaves no spare
// capacity for replacements.
func newWorld(t *testing.T, tenants, days, r int, poolFactor int) *world {
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
	cfg := workload.DefaultComposeConfig(3)
	cfg.Days = days
	cfg.Holidays = 0
	logs, err := workload.Compose(lib, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := advisor.DefaultConfig()
	acfg.R = r
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, cfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	pool := cluster.NewPool(poolFactor * plan.NodesUsed())
	m := master.New(pool, master.Options{Immediate: true})
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

func countEvents(h *telemetry.Hub, typ telemetry.EventType) int {
	n := 0
	for _, ev := range h.Events.Recent(0) {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// crashMix is a moderate failure mix: a crash every ~2 h, a quarter of them
// repeated mid-recovery, one in ten a cross-group burst.
var crashMix = Crashes{RepeatProb: 0.25, BurstProb: 0.1}

// crashConfig is a crash-only run over [0, to).
func crashConfig(seed int64, to sim.Time, c Crashes) Config {
	return Config{Seed: seed, Window: Window{To: to}, Faults: []Fault{c}}
}

// TestChaosEndToEnd is the acceptance run: an R=3 deployment under a
// randomized schedule of crashes, repeat crashes, and bursts. No scripted
// repair exists anywhere — detection is scheduled on the controllers' 30-s
// grid, repair is the §4.4 swap + Table 5.1 reload — yet SLA attainment
// holds above the plan's P and the pool ends leak-free.
func TestChaosEndToEnd(t *testing.T) {
	w := newWorld(t, 10, 2, 3, 3)
	crashes := crashMix
	crashes.MeanBetween = 90 * time.Minute
	crashes.RepeatProb = 0.3
	crashes.BurstProb = 0.2
	crashes.MaxFailures = 10
	res, err := Run(nil, w.dep, w.cat, w.logs, crashConfig(42, sim.Day, crashes))
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied < 3 {
		t.Fatalf("only %d failures applied (schedule %d) — not enough chaos", res.Applied, len(res.CrashSchedule))
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Error(err)
	}
	// Every applied failure ran one full autonomous lifecycle.
	if len(res.Report.RecoveryEvents) != res.Applied {
		t.Errorf("%d recovery lifecycles for %d applied failures", len(res.Report.RecoveryEvents), res.Applied)
	}
	for _, rec := range res.Report.RecoveryEvents {
		if !rec.Recovered() || rec.Attempts < 1 || rec.Detected <= 0 {
			t.Errorf("incomplete lifecycle %+v", rec)
		}
	}
	h := w.dep.Telemetry()
	if got := countEvents(h, telemetry.EventRecoveryStarted); got != res.Applied {
		t.Errorf("%d recovery_started events, want %d", got, res.Applied)
	}
	if got := countEvents(h, telemetry.EventRecoveryCompleted); got != res.Recovered {
		t.Errorf("%d recovery_completed events, want %d", got, res.Recovered)
	}
}

// TestChaosPoolExhaustion starves the pool (no spare nodes): recovery can
// never complete, but it must degrade loudly — every lifecycle queued in the
// scarcity triage (triage_enqueued telemetry, one claim each), the run and
// drain completing — rather than deadlock.
func TestChaosPoolExhaustion(t *testing.T) {
	w := newWorld(t, 4, 1, 2, 1)
	crashes := crashMix
	crashes.RepeatProb, crashes.BurstProb = 0, 0
	crashes.MaxFailures = 2
	res, err := Run(w.eng, w.dep, w.cat, w.logs, crashConfig(7, sim.Day, crashes))
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied < 1 {
		t.Fatal("no failure applied")
	}
	if res.Recovered != 0 {
		t.Errorf("%d recoveries completed with an empty pool", res.Recovered)
	}
	if res.InFlight != res.Applied {
		t.Errorf("%d recoveries in flight, want %d still queued", res.InFlight, res.Applied)
	}
	if res.FailedNodes < 1 {
		t.Error("no failed node left in the pool")
	}
	if got := countEvents(w.dep.Telemetry(), telemetry.EventTriageEnqueued); got != res.Applied {
		t.Errorf("%d triage_enqueued events, want one per applied failure (%d)", got, res.Applied)
	}
	if q := w.dep.Triage().Queued(); len(q) != res.Applied {
		t.Errorf("%d queued claims, want %d: %+v", len(q), res.Applied, q)
	}
	if err := res.Verify(1); err == nil {
		t.Error("Verify passed an unrecovered run")
	}
}

// TestChaosScheduleDeterministic: the schedule is a pure function of the
// deployment shape and config.
func TestChaosScheduleDeterministic(t *testing.T) {
	win := Window{To: sim.Day}
	a := BuildCrashes(newWorld(t, 6, 1, 2, 2).dep, 1, win, crashMix)
	b := BuildCrashes(newWorld(t, 6, 1, 2, 2).dep, 1, win, crashMix)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedules diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaosValidation(t *testing.T) {
	w := newWorld(t, 4, 1, 2, 2)
	day := Window{To: sim.Day}
	bad := []Config{
		{Seed: 1, Window: Window{From: sim.Day, To: 0}, Faults: []Fault{Crashes{MeanBetween: time.Hour, MaxFailures: 1}}},
		{Seed: 1, Window: day, Faults: []Fault{Crashes{MeanBetween: -time.Hour}}},
		{Seed: 1, Window: day, Faults: []Fault{Crashes{MaxFailures: -1}}},
		{Seed: 1, Window: day, Faults: []Fault{Crashes{RepeatProb: 0.5, RepeatDelay: -time.Minute}}},
		{Seed: 1, Window: day},
	}
	for i, cfg := range bad {
		if _, err := Run(w.eng, w.dep, w.cat, w.logs, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestChaosTelemetryDeterminism is the determinism guard for chaos on a
// shared clock domain: the same seed against a freshly built world must
// reproduce the telemetry event and trace streams byte for byte.
func TestChaosTelemetryDeterminism(t *testing.T) {
	var sum, resSum string
	dump := func() (events, traces []byte) {
		t.Helper()
		w := newWorld(t, 4, 1, 2, 3)
		crashes := crashMix
		crashes.MaxFailures = 4
		res, err := Run(w.eng, w.dep, w.cat, w.logs, crashConfig(99, sim.Day, crashes))
		if err != nil {
			t.Fatal(err)
		}
		sum = telemetrySum(t, w.dep.Telemetry())
		resSum = digest(res.Report.Submitted, res.Report.SubmitErrors, len(res.Report.Records),
			res.Attainment, res.MinRTTTP, res.CrashSchedule, len(res.CrashSchedule), res.Applied, res.Recovered,
			res.InFlight, res.ExpectedActive, res.ActiveNodes, res.FailedNodes, res.RepairingNodes)
		var ev, tr bytes.Buffer
		if err := w.dep.Telemetry().Events.Dump(&ev); err != nil {
			t.Fatal(err)
		}
		if err := w.dep.Telemetry().Tracer.Dump(&tr); err != nil {
			t.Fatal(err)
		}
		return ev.Bytes(), tr.Bytes()
	}
	ev1, tr1 := dump()
	ev2, tr2 := dump()
	if !bytes.Equal(ev1, ev2) {
		t.Error("event dumps differ across identically seeded chaos runs")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("trace dumps differ across identically seeded chaos runs")
	}
	if len(ev1) == 0 || len(tr1) == 0 {
		t.Error("empty telemetry dumps")
	}
	checkGolden(t, "chaos telemetry", sum, goldenChaosTelemetry)
	checkGolden(t, "chaos result", resSum, goldenChaosResult)
}

// TestChaosSmoke is the bounded -race smoke target for make check: a small
// run that exercises injection and recovery on every group's engine.
func TestChaosSmoke(t *testing.T) {
	w := newWorld(t, 4, 1, 2, 3)
	crashes := crashMix
	crashes.MeanBetween = time.Hour
	crashes.MaxFailures = 3
	res, err := Run(nil, w.dep, w.cat, w.logs, crashConfig(3, 12*sim.Hour, crashes))
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied < 1 {
		t.Fatal("no failure applied")
	}
	if res.Recovered != res.Applied || res.InFlight != 0 {
		t.Errorf("recovered %d of %d, %d in flight", res.Recovered, res.Applied, res.InFlight)
	}
	if res.ActiveNodes != res.ExpectedActive || res.FailedNodes != 0 || res.RepairingNodes != 0 {
		t.Errorf("pool leak: %+v", res)
	}
}

// TestStormHarnessesRejectWhatTheyCannotDrive: slowdowns, outages and
// storms schedule on the coordinator engine, so each turns a missing engine
// away in its own voice, and Run turns an empty window away, before anything
// is scheduled.
func TestStormHarnessesRejectWhatTheyCannotDrive(t *testing.T) {
	w := newWorld(t, 6, 1, 2, 2)
	win := Window{To: sim.Hour}
	for name, f := range map[string]Fault{
		"overload":   Storm{Aggressors: 1},
		"grayfail":   Slowdowns{},
		"domainfail": Outages{},
	} {
		for _, tc := range []struct {
			eng  *sim.Engine
			win  Window
			want string
		}{
			{nil, win, name + ": nil engine"},
			{w.eng, Window{From: sim.Hour, To: sim.Hour}, "chaos: window [0d01:00:00.000,0d01:00:00.000)"},
		} {
			_, err := Run(tc.eng, w.dep, w.cat, w.logs, Config{Seed: 1, Window: tc.win, Faults: []Fault{f}})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: got %v, want %q", name, err, tc.want)
			}
		}
		if w.eng.Pending() != 0 {
			t.Errorf("%s scheduled events before rejecting", name)
		}
	}
}

// TestRejectedConfigSchedulesNothing: every fault is validated, targets
// included, before any fault schedules anything — a Config that fails on
// its last fault, or on the last entry of a schedule, leaves the
// coordinator engine as it found it.
func TestRejectedConfigSchedulesNothing(t *testing.T) {
	w := overloadWorld(t, 8, 1, true)
	gid := w.dep.Groups()[0].Plan.ID
	good := Slowdown{At: sim.Hour, Duration: time.Hour, Group: gid, Profile: ProfileStuck, Factor: 0.3}
	badTarget := good
	badTarget.Group = "TG-NOPE"
	twoStorms := Storm{Aggressors: 1}
	twoStorms.MaxStorm = 10
	// The seed-1 storm's second aggressor, with its log left out.
	target := largest(w.dep.Groups())
	second := target.Members[rand.New(rand.NewSource(1)).Perm(len(target.Members))[1]].ID
	var noSecond []*workload.TenantLog
	for _, tl := range w.logs {
		if tl.Tenant.ID != second {
			noSecond = append(noSecond, tl)
		}
	}
	noLog := Storm{Aggressors: 1}
	noLog.Aggressors = 2
	win := Window{To: 4 * sim.Hour}
	for name, tc := range map[string]struct {
		faults []Fault
		logs   []*workload.TenantLog
	}{
		"second slowdown names no group": {faults: []Fault{Slowdowns{Schedule: []Slowdown{good, badTarget}}}},
		"storm then a bad slowdown":      {faults: []Fault{Storm{Aggressors: 1}, Slowdowns{Schedule: []Slowdown{badTarget}}}},
		"slowdown then a bad outage":     {faults: []Fault{Slowdowns{Schedule: []Slowdown{good}}, Outages{}}},
		"two storms":                     {faults: []Fault{Storm{Aggressors: 1}, twoStorms}},
		"two slowdown faults":            {faults: []Fault{Slowdowns{Schedule: []Slowdown{good}}, Slowdowns{}}},
		"second aggressor without a log": {faults: []Fault{noLog}, logs: noSecond},
	} {
		logs := w.logs
		if tc.logs != nil {
			logs = tc.logs
		}
		if _, err := Run(w.eng, w.dep, w.cat, logs, Config{Seed: 1, Window: win, Faults: tc.faults}); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := w.eng.Pending(); n != 0 {
			t.Errorf("%s: %d events left on the coordinator after the rejection", name, n)
		}
	}
}
