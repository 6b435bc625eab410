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

// TestChaosEndToEnd is the acceptance run: an R=3 deployment under a
// randomized schedule of crashes, repeat crashes, and bursts. No scripted
// repair exists anywhere — detection is the controllers' heartbeat, repair
// the §4.4 swap + Table 5.1 reload — yet SLA attainment holds above the
// plan's P and the pool ends leak-free.
func TestChaosEndToEnd(t *testing.T) {
	w := newWorld(t, 10, 2, 3, 3)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.From, cfg.To = 0, sim.Day
	cfg.MeanBetween = 90 * time.Minute
	cfg.RepeatProb = 0.3
	cfg.BurstProb = 0.2
	cfg.MaxFailures = 10
	res, err := Run(nil, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied < 3 {
		t.Fatalf("only %d failures applied (schedule %d) — not enough chaos", res.Applied, res.Injected)
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
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.From, cfg.To = 0, sim.Day
	cfg.RepeatProb, cfg.BurstProb = 0, 0
	cfg.MaxFailures = 2
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
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
	cfg := DefaultConfig()
	cfg.From, cfg.To = 0, sim.Day
	a := BuildSchedule(newWorld(t, 6, 1, 2, 2).dep, cfg)
	b := BuildSchedule(newWorld(t, 6, 1, 2, 2).dep, cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedules diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaosValidation(t *testing.T) {
	w := newWorld(t, 4, 1, 2, 2)
	bad := []Config{
		{Seed: 1, Window: Window{From: sim.Day, To: 0}, MeanBetween: time.Hour, MaxFailures: 1},
		{Seed: 1, Window: Window{From: 0, To: sim.Day}, MeanBetween: 0, MaxFailures: 1},
		{Seed: 1, Window: Window{From: 0, To: sim.Day}, MeanBetween: time.Hour, MaxFailures: 0},
		{Seed: 1, Window: Window{From: 0, To: sim.Day}, MeanBetween: time.Hour, MaxFailures: 1, RepeatProb: 0.5},
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
		cfg := DefaultConfig()
		cfg.Seed = 99
		cfg.From, cfg.To = 0, sim.Day
		cfg.MaxFailures = 4
		res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum = telemetrySum(t, w.dep.Telemetry())
		resSum = digest(res.Report.Submitted, res.Report.SubmitErrors, len(res.Report.Records),
			res.Attainment, res.MinRTTTP, res.Schedule, res.Injected, res.Applied, res.Recovered,
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
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.From, cfg.To = 0, 12*sim.Hour
	cfg.MeanBetween = time.Hour
	cfg.MaxFailures = 3
	res, err := Run(nil, w.dep, w.cat, w.logs, cfg)
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

// TestStormHarnessesRejectWhatTheyCannotDrive: the three storms schedule on
// the coordinator engine, so each turns a missing engine and an empty window
// away, in its own voice, before scheduling anything.
func TestStormHarnessesRejectWhatTheyCannotDrive(t *testing.T) {
	shared := newWorld(t, 6, 1, 2, 2)
	win := Window{From: 0, To: sim.Hour}
	runs := map[string]func(*sim.Engine, *world, Window) error{
		"overload": func(eng *sim.Engine, w *world, win Window) error {
			cfg := DefaultOverloadConfig()
			cfg.Window = win
			_, err := RunOverload(eng, w.dep, w.cat, w.logs, cfg)
			return err
		},
		"grayfail": func(eng *sim.Engine, w *world, win Window) error {
			cfg := DefaultGrayFailConfig()
			cfg.Window = win
			_, err := RunGrayFail(eng, w.dep, w.cat, w.logs, cfg)
			return err
		},
		"domainfail": func(eng *sim.Engine, w *world, win Window) error {
			cfg := DefaultDomainFailConfig()
			cfg.Window = win
			_, err := RunDomainFail(eng, w.dep, w.cat, w.logs, cfg)
			return err
		},
	}
	for name, run := range runs {
		for _, tc := range []struct {
			eng  *sim.Engine
			w    *world
			win  Window
			want string
		}{
			{nil, shared, win, name + ": nil engine"},
			{shared.eng, shared, Window{From: sim.Hour, To: sim.Hour}, name + ": window [0d01:00:00.000,0d01:00:00.000)"},
		} {
			if err := run(tc.eng, tc.w, tc.win); err == nil || err.Error() != tc.want {
				t.Errorf("%s: got %v, want %q", name, err, tc.want)
			}
		}
		if shared.eng.Pending() != 0 {
			t.Errorf("%s scheduled events before rejecting", name)
		}
	}
}
