package chaos

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// overloadWorld builds a deployment for storm runs. admit
// arms per-group admission with contracts derived from the logs; the
// monitor window and brownout tick are tightened so the protection loop
// reacts within the test's short horizon.
func overloadWorld(t *testing.T, tenants, days int, admit bool) *world {
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
	if admit {
		cfg := admission.DefaultConfig()
		cfg.Contracts = admission.ContractsFromLogs(logs)
		cfg.TickInterval = 5 * time.Second
		opts.Admission = &cfg
	}
	eng := sim.NewEngine()
	pool := cluster.NewPool(plan.NodesUsed())
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

// stormConfig is a seeded 12-h run of the storm alone.
func stormConfig(s Storm) Config {
	return Config{Seed: 11, Window: Window{To: 12 * sim.Hour, DrainSlack: 2 * time.Hour}, Faults: []Fault{s}}
}

// TestOverloadProtection is the acceptance run: the identical seeded storm
// against two fresh deployments. Without admission the aggressor's open
// loop burns a compliant co-tenant's SLA below the plan's P; with admission
// armed the aggressor is throttled with typed 429s and every compliant
// member's attainment holds the guarantee.
func TestOverloadProtection(t *testing.T) {
	cfg := stormConfig(Storm{Aggressors: 1})

	base := overloadWorld(t, 12, 2, false)
	baseRes, err := Run(base.eng, base.dep, base.cat, base.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := base.plan.Config.P
	if baseRes.AdmissionOn {
		t.Fatal("baseline unexpectedly has admission armed")
	}
	if baseRes.MinCompliantAttainment >= p {
		t.Fatalf("baseline storm did no damage: min compliant attainment %.6f >= %.6f",
			baseRes.MinCompliantAttainment, p)
	}

	prot := overloadWorld(t, 12, 2, true)
	protRes, err := Run(prot.eng, prot.dep, prot.cat, prot.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !protRes.AdmissionOn {
		t.Fatal("protected run has no admission")
	}
	if err := protRes.Verify(p); err != nil {
		t.Fatalf("protected run: %v (outcomes %+v)", err, protRes.Outcomes)
	}
	if protRes.StormThrottled == 0 {
		t.Fatalf("aggressor never saw a typed 429: %+v", protRes)
	}
	hub := prot.dep.Telemetry()
	if n := countEvents(hub, telemetry.EventContractExceeded); n == 0 {
		t.Fatal("no contract_exceeded events published")
	}
	// The throttle counters must be visible in the registry.
	var buf bytes.Buffer
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("thrifty_admission_throttled_total")) {
		t.Fatal("metrics lack thrifty_admission_throttled_total")
	}
	t.Logf("baseline min compliant attainment %.6f; protected %.6f, storm %d submitted / %d admitted / %d throttled / %d shed",
		baseRes.MinCompliantAttainment, protRes.MinCompliantAttainment,
		protRes.StormSubmitted, protRes.StormAdmitted, protRes.StormThrottled, protRes.StormShed)
}

// TestOverloadTelemetryDeterminism: two fresh same-seed storm runs emit
// byte-identical telemetry dumps — the admission layer preserves the
// determinism contract.
func TestOverloadTelemetryDeterminism(t *testing.T) {
	var sum, resSum string
	dump := func() (string, string) {
		w := overloadWorld(t, 12, 2, true)
		res, err := Run(w.eng, w.dep, w.cat, w.logs, stormConfig(Storm{Aggressors: 1}))
		if err != nil {
			t.Fatal(err)
		}
		hub := w.dep.Telemetry()
		sum = telemetrySum(t, hub)
		resSum = digest(res.Group, res.Aggressors, res.AdmissionOn,
			res.StormSubmitted, res.StormAdmitted, res.StormThrottled, res.StormShed, res.StormErrors,
			res.Report.Submitted, res.NormalThrottled, res.NormalShed, res.Outcomes,
			res.MinCompliantAttainment, res.MinRTTTP)
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
		t.Fatal("same-seed overload runs emitted different event dumps")
	}
	if tr1 != tr2 {
		t.Fatal("same-seed overload runs emitted different trace dumps")
	}
	if len(ev1) == 0 {
		t.Fatal("overload run emitted no events")
	}
	checkGolden(t, "overload telemetry", sum, goldenOverloadTelemetry)
	checkGolden(t, "overload result", resSum, goldenOverloadResult)
}

// TestOverloadSmoke is a bounded CI gate (make fault-smoke): a short
// seeded storm against a protected deployment must be contained.
func TestOverloadSmoke(t *testing.T) {
	storm := Storm{Aggressors: 1}
	storm.MaxStorm = 500
	cfg := stormConfig(storm)
	cfg.To = 4 * sim.Hour
	cfg.DrainSlack = time.Hour
	w := overloadWorld(t, 8, 1, true)
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatal(err)
	}
	if res.StormThrottled == 0 {
		t.Fatalf("smoke storm never throttled: %+v", res)
	}
}

// TestOverloadValidation rejects malformed storms.
func TestOverloadValidation(t *testing.T) {
	ws := overloadWorld(t, 6, 1, false)
	run := func(win Window, s Storm) error {
		_, err := Run(ws.eng, ws.dep, ws.cat, ws.logs, Config{Seed: 1, Window: win, Faults: []Fault{s}})
		return err
	}
	hour := Window{To: sim.Hour}
	if run(Window{}, Storm{Aggressors: 1}) == nil {
		t.Fatal("empty window accepted")
	}
	bad := Storm{Aggressors: 1}
	bad.Factor = 1
	if run(hour, bad) == nil {
		t.Fatal("Factor <= 1 accepted")
	}
	bad = Storm{Aggressors: 1}
	bad.Aggressors = 100
	if run(hour, bad) == nil {
		t.Fatal("oversized aggressor count accepted")
	}
}
