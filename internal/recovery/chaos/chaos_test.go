package chaos

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/monitor"
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

// crashConfig is a crash-only run over [0, to).
func crashConfig(seed int64, to sim.Time, c Crashes) Config {
	return Config{Seed: seed, Window: Window{To: to}, Faults: []Fault{c}}
}

// TestChaosEndToEnd is the acceptance run: an R=3 deployment under a dense
// schedule of crashes, repeat crashes, and bursts — a seeded draw of a
// crash every ~90 min, three in ten repeated and one instant in five a
// burst. No scripted repair exists anywhere — detection is scheduled on the
// controllers' 30-s grid, repair is the §4.4 swap + Table 5.1 reload — yet
// SLA attainment holds above the plan's P and the pool ends leak-free.
func TestChaosEndToEnd(t *testing.T) {
	w := newWorld(t, 10, 2, 3, 3)
	crashes := Crashes{Schedule: []Crash{
		{At: 2676987440472, Group: "TG-0000", Instance: 2},  // 0d00:44:36.987, a burst
		{At: 2676987440472, Group: "TG-0001", Instance: 0},  // 0d00:44:36.987
		{At: 3303194329959, Group: "TG-0001", Instance: 2},  // 0d00:55:03.194
		{At: 11005073870512, Group: "TG-0001", Instance: 0}, // 0d03:03:25.073
		{At: 11605073870512, Group: "TG-0001", Instance: 0}, // 0d03:13:25.073, a repeat
		{At: 12784952200094, Group: "TG-0000", Instance: 2}, // 0d03:33:04.952
		{At: 15905583097994, Group: "TG-0000", Instance: 0}, // 0d04:25:05.583, a burst
		{At: 15905583097994, Group: "TG-0001", Instance: 1}, // 0d04:25:05.583
		{At: 18955567560840, Group: "TG-0001", Instance: 2}, // 0d05:15:55.567
		{At: 19555567560840, Group: "TG-0001", Instance: 2}, // 0d05:25:55.567, a repeat
	}}
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
	crashes := Crashes{Schedule: []Crash{
		{At: 6001382089394, Group: "TG-0000", Instance: 1},  // 0d01:40:01.382
		{At: 10240358086508, Group: "TG-0000", Instance: 0}, // 0d02:50:40.358
	}}
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
// deployment shape, the seed and the window.
func TestChaosScheduleDeterministic(t *testing.T) {
	win := Window{To: sim.Day}
	a := BuildCrashes(newWorld(t, 6, 1, 2, 2).dep, 1, win)
	b := BuildCrashes(newWorld(t, 6, 1, 2, 2).dep, 1, win)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedules diverged:\n%+v\n%+v", a, b)
	}
}

// TestScopeKeepsCallerOrder replays the same world under a fault scoped to
// the largest group (an empty slowdown schedule) and under one scoped to
// every group (an empty crash schedule): either way the replay takes the
// caller's logs in the caller's order, which breaks ties between
// simultaneous arrivals, so the largest group's record log is the same.
// Only the slowdowns slack the SLO targets, so those are zeroed.
func TestScopeKeepsCallerOrder(t *testing.T) {
	win := Window{To: sim.Day, DrainSlack: 24 * time.Hour}
	largestRecords := func(f Fault) []monitor.QueryRecord {
		w := newWorld(t, 60, 2, 3, 2)
		res, err := Run(w.eng, w.dep, w.cat, w.logs, Config{Seed: 1, Window: win, Faults: []Fault{f}})
		if err != nil {
			t.Fatal(err)
		}
		g, _ := w.dep.Plane().GroupByID(res.Group)
		var out []monitor.QueryRecord
		for _, rec := range res.Report.Records {
			if g.Router.HasTenant(rec.Tenant) {
				rec.SLATarget = 0
				out = append(out, rec)
			}
		}
		return out
	}
	scoped := largestRecords(Slowdowns{Schedule: []Slowdown{}})
	every := largestRecords(Crashes{Schedule: []Crash{}})
	if len(scoped) == 0 {
		t.Fatal("the largest group completed no query")
	}
	if !slices.Equal(scoped, every) {
		t.Errorf("the largest group's records differ by scope: %d records scoped, %d under every group", len(scoped), len(every))
	}
}

func TestChaosValidation(t *testing.T) {
	w := newWorld(t, 4, 1, 2, 2)
	day := Window{To: sim.Day}
	bad := []Config{
		{Seed: 1, Window: Window{From: sim.Day, To: 0}, Faults: []Fault{Crashes{}}},
		{Seed: 1, Window: day},
	}
	for i, cfg := range bad {
		if _, err := Run(w.eng, w.dep, w.cat, w.logs, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A repeat crash may land past the window's end: it fires during the
	// drain, after the first crash's repair, and is repaired there.
	late := Crashes{Schedule: []Crash{
		{At: 352378929543, Group: "TG-0000", Instance: 1},   // 0d00:05:52.378
		{At: 21952378929543, Group: "TG-0000", Instance: 1}, // 0d06:05:52.378
	}}
	cfg := crashConfig(1, sim.Hour, late)
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatalf("a repeat crash past the window rejected: %v", err)
	}
	if err := res.Verify(0); err != nil || res.Applied != 2 {
		t.Errorf("%d of 2 crashes applied: %v", res.Applied, err)
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
		crashes := Crashes{Schedule: []Crash{
			{At: 3619600147178, Group: "TG-0000", Instance: 0},  // 0d01:00:19.600
			{At: 9420439116451, Group: "TG-0000", Instance: 1},  // 0d02:37:00.439
			{At: 10020439116451, Group: "TG-0000", Instance: 1}, // 0d02:47:00.439, a repeat
			{At: 12964922841243, Group: "TG-0000", Instance: 0}, // 0d03:36:04.922
		}}
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
	crashes := Crashes{Schedule: []Crash{
		{At: 6969615508579, Group: "TG-0000", Instance: 0}, // 0d01:56:09.615
		{At: 7913471347156, Group: "TG-0000", Instance: 0}, // 0d02:11:53.471
		{At: 9165306725939, Group: "TG-0000", Instance: 1}, // 0d02:32:45.306
	}}
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
// coordinator engine and every group's engine as it found them.
func TestRejectedConfigSchedulesNothing(t *testing.T) {
	w := overloadWorld(t, 8, 1, true)
	gid := w.dep.Groups()[0].Plan.ID
	good := Slowdown{At: sim.Hour, Duration: time.Hour, Group: gid, Profile: ProfileStuck, Factor: 0.3}
	badTarget := good
	badTarget.Group = "TG-NOPE"
	// The seed-1 storm's second aggressor, with its log left out.
	target := largest(w.dep.Groups())
	second := target.Members[rand.New(rand.NewSource(1)).Perm(len(target.Members))[1]].ID
	var noSecond []*workload.TenantLog
	for _, tl := range w.logs {
		if tl.Tenant.ID != second {
			noSecond = append(noSecond, tl)
		}
	}
	noLog := Storm{Aggressors: 2}
	crash := Crash{At: sim.Hour, Group: gid}
	hammer := TakeOver{Tenant: target.Members[0].ID, Start: sim.Hour, Interval: time.Second}
	ghost := hammer
	ghost.Tenant = "ghost"
	noQ1, err := queries.NewCatalog(w.cat.Suite(queries.TPCDS))
	if err != nil {
		t.Fatal(err)
	}
	win := Window{To: 4 * sim.Hour}
	for name, tc := range map[string]struct {
		faults []Fault
		logs   []*workload.TenantLog
		cat    *queries.Catalog
	}{
		"second slowdown names no group": {faults: []Fault{Slowdowns{Schedule: []Slowdown{good, badTarget}}}},
		"storm then a bad slowdown":      {faults: []Fault{Storm{Aggressors: 1}, Slowdowns{Schedule: []Slowdown{badTarget}}}},
		"slowdown then a bad outage":     {faults: []Fault{Slowdowns{Schedule: []Slowdown{good}}, Outages{}}},
		"two storms":                     {faults: []Fault{Storm{Aggressors: 1}, Storm{Aggressors: 2}}},
		"two slowdown faults":            {faults: []Fault{Slowdowns{Schedule: []Slowdown{good}}, Slowdowns{}}},
		"second aggressor without a log": {faults: []Fault{noLog}, logs: noSecond},
		"second crash names no group":    {faults: []Fault{Crashes{Schedule: []Crash{crash, {At: sim.Hour, Group: "TG-NOPE"}}}}},
		"take-over then a crash on no instance": {faults: []Fault{hammer,
			Crashes{Schedule: []Crash{{At: sim.Hour, Group: gid, Instance: len(w.dep.Groups()[0].Instances)}}}}},
		"crash then a take-over of an undeployed tenant": {faults: []Fault{Crashes{Schedule: []Crash{crash}}, ghost}},
		"crash then a take-over without its class":       {faults: []Fault{Crashes{Schedule: []Crash{crash}}, hammer}, cat: noQ1},
	} {
		logs, cat := w.logs, w.cat
		if tc.logs != nil {
			logs = tc.logs
		}
		if tc.cat != nil {
			cat = tc.cat
		}
		before := pending(w.dep)
		if _, err := Run(w.eng, w.dep, cat, logs, Config{Seed: 1, Window: win, Faults: tc.faults}); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := w.eng.Pending(); n != 0 {
			t.Errorf("%s: %d events left on the coordinator after the rejection", name, n)
		}
		if after := pending(w.dep); !slices.Equal(after, before) {
			t.Errorf("%s: group engines hold %v events after the rejection, %v before", name, after, before)
		}
	}
}

// pending lists how many events each group's engine holds.
func pending(dep *master.Deployment) []int {
	var out []int
	for _, g := range dep.Groups() {
		g.Domain().Do(func(eng *sim.Engine) { out = append(out, eng.Pending()) })
	}
	return out
}
