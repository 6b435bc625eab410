package chaos

import (
	"bytes"
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

// domainWorld builds a recovery-armed deployment on a multi-domain pool for
// correlated-failure storms. spread arms spread placement and re-spread;
// slackPct sizes the spare capacity (scarce by design, so a whole-domain loss
// forces the triage queue to form).
func domainWorld(t *testing.T, tenants, days, r, domains int, spread bool, slackPct int) *world {
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
	acfg.R = r
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, ccfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	opts := master.Options{
		Immediate:     true,
		MonitorWindow: time.Hour,
		NoSpread:      !spread,
	}
	used := plan.NodesUsed()
	pool := cluster.NewPoolDomains(used+(used*slackPct+99)/100, domains)
	eng := sim.NewEngine()
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

// domainStormConfig is a seeded 12-h run of the faults.
func domainStormConfig(faults ...Fault) Config {
	// Table 5.1 reloads of the bigger groups run for hours; triage queues
	// drain only after the domain returns.
	return Config{Seed: 7, Window: Window{To: 12 * sim.Hour, DrainSlack: 48 * time.Hour}, Faults: faults}
}

// twoHourOutages is a storm of two 2-h outages, evenly spaced through the
// 12-h window on seeded domains.
func twoHourOutages() Outages {
	return Outages{Schedule: []DomainOutage{
		{At: 3 * sim.Hour, Duration: 2 * time.Hour, Domain: 2},
		{At: 7 * sim.Hour, Duration: 2 * time.Hour, Domain: 0},
	}}
}

// TestDomainSmoke is a bounded CI gate (make fault-smoke): a short seeded
// whole-domain outage against a protected deployment (spread placement +
// scarcity triage) must be absorbed — zero dropped queries, every recovery
// and triage claim drained, pool leak-free.
func TestDomainSmoke(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, 20)
	res, err := Run(w.eng, w.dep, w.cat, w.logs, domainStormConfig(twoHourOutages()))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatalf("domain smoke: %v (%+v)", err, res)
	}
	if res.Casualties == 0 {
		t.Fatalf("outages killed no nodes: %+v", res.OutageSchedule)
	}
	if res.Quarantines == 0 {
		t.Error("no fully covered instance was quarantined — spread placement should put whole instances in one domain")
	}
	if res.Lifecycles == 0 || res.Recovered != res.Lifecycles {
		t.Errorf("recovered %d of %d lifecycles", res.Recovered, res.Lifecycles)
	}
	checkSLATotals(t, w, res)
	t.Logf("casualties %d, quarantines %d, lifecycles %d (triaged %d), triage %d/%d, attainment %.4f",
		res.Casualties, res.Quarantines, res.Lifecycles, res.Triaged,
		res.TriageEnqueued, res.TriageGranted, res.Attainment)
}

// TestDomainFailTelemetryDeterminism: two fresh same-seed protected storms
// emit byte-identical telemetry — spread acquisition, domain injection,
// triage polling, quarantine, and re-spread all preserve the determinism
// contract.
func TestDomainFailTelemetryDeterminism(t *testing.T) {
	var sum, resSum string
	dump := func() (string, string) {
		w := domainWorld(t, 12, 1, 3, 3, true, 20)
		res, err := Run(w.eng, w.dep, w.cat, w.logs, domainStormConfig(twoHourOutages()))
		if err != nil {
			t.Fatal(err)
		}
		hub := w.dep.Telemetry()
		sum = telemetrySum(t, hub)
		// The literal true stands where the result's TriageArmed flag was
		// hashed: every deployment has the triage, so the flag was constant
		// and went, and the pinned digest holds unedited.
		resSum = digest(res.OutageSchedule, true, res.Casualties, res.Quarantines, res.InjectErrs,
			res.Report.Submitted, res.Report.SubmitErrors, res.Attainment, res.MinAttainment, res.MinRTTTP,
			res.Lifecycles, res.Recovered, res.Triaged, res.TriageEnqueued, res.TriageGranted,
			res.QueuedClaims, res.Respreads, res.CollapsedGroups,
			res.InFlight, res.ResidualDegraded, res.QuarantinedEnd, res.DownDomains,
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
		t.Fatal("same-seed domain-fail runs emitted different event dumps")
	}
	if tr1 != tr2 {
		t.Fatal("same-seed domain-fail runs emitted different trace dumps")
	}
	if len(ev1) == 0 {
		t.Fatal("domain-fail run emitted no events")
	}
	checkGolden(t, "domain-fail telemetry", sum, goldenDomainTelemetry)
	checkGolden(t, "domain-fail result", resSum, goldenDomainResult)
}

// TestDomainFailRolling marches 2-h outages through consecutive domains
// back-to-back with a 25% overlap, so restoration of one domain races the
// loss of the next. The protected deployment must still absorb the storm.
func TestDomainFailRolling(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, 25)
	cfg := domainStormConfig(Outages{Schedule: []DomainOutage{
		{At: 4*sim.Hour + 30*sim.Minute, Duration: 2 * time.Hour, Domain: 2},
		{At: 6 * sim.Hour, Duration: 2 * time.Hour, Domain: 0},
		{At: 7*sim.Hour + 30*sim.Minute, Duration: 2 * time.Hour, Domain: 1},
	}})
	cfg.To = 18 * sim.Hour
	cfg.DrainSlack = 60 * time.Hour
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatalf("rolling storm: %v (%+v)", err, res)
	}
}

// TestDomainFailDuringSlowdown composes two fault classes as two values in
// Faults: a whole-domain outage lands in the middle of a stuck fail-slow
// episode on the bare deployment, so the casualties' replacements reload
// onto the surviving domains while an instance of the largest group runs at
// a quarter speed. Every recovery completes, the pool ends leak-free, and
// the slowdown is lifted.
func TestDomainFailDuringSlowdown(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, 25)
	target := w.dep.Groups()[0]
	for _, g := range w.dep.Groups()[1:] {
		if len(g.Members) > len(target.Members) {
			target = g
		}
	}
	outages := Outages{Schedule: []DomainOutage{{At: 2 * sim.Hour, Duration: 2 * time.Hour, Domain: 0}}}
	slowdowns := Slowdowns{Schedule: []Slowdown{{
		At: sim.Hour, Duration: 4 * time.Hour,
		Group: target.Plan.ID, Instance: 0,
		Profile: ProfileStuck, Factor: 0.25,
	}}}
	cfg := domainStormConfig(outages, slowdowns)
	cfg.DrainSlack = 72 * time.Hour
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatalf("outage during slowdown: %v (%+v)", err, res)
	}
	if res.Casualties == 0 {
		t.Fatal("domain outage killed no nodes")
	}
}

// TestDomainRespread forces a collapse: a two-domain pool, a spread group,
// and a long outage of one domain. Mid-outage replacements can only come
// from the surviving domain, so the group collapses onto it; after the
// domain returns, the re-spread check on the 30-s grid must live-migrate a
// replica back and end the run spanning both domains again.
func TestDomainRespread(t *testing.T) {
	w := domainWorld(t, 6, 1, 2, 2, true, 60)
	cfg := domainStormConfig(Outages{Schedule: []DomainOutage{{At: 2 * sim.Hour, Duration: 4 * time.Hour, Domain: 1}}})
	cfg.DrainSlack = 96 * time.Hour
	res, err := Run(w.eng, w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w.plan.Config.P); err != nil {
		t.Fatalf("respread run: %v (%+v)", err, res)
	}
	if res.Respreads == 0 {
		t.Fatalf("no re-spread cutover happened (collapsed groups at end: %d)", res.CollapsedGroups)
	}
	if res.CollapsedGroups != 0 {
		t.Errorf("%d groups still collapsed onto one domain after re-spread", res.CollapsedGroups)
	}
}

// TestDomainOutageValidation rejects malformed schedules and single-domain
// pools before any injection runs.
func TestDomainOutageValidation(t *testing.T) {
	if err := ValidateOutages([]DomainOutage{
		{At: sim.Hour, Duration: time.Hour, Domain: 5},
	}, 3, 0, sim.Day); err == nil {
		t.Error("out-of-range domain accepted")
	}
	if err := ValidateOutages([]DomainOutage{
		{At: sim.Hour, Duration: 0, Domain: 0},
	}, 3, 0, sim.Day); err == nil {
		t.Error("zero duration accepted")
	}
	if err := ValidateOutages([]DomainOutage{
		{At: 2 * sim.Day, Duration: time.Hour, Domain: 0},
	}, 3, 0, sim.Day); err == nil {
		t.Error("outage outside the window accepted")
	}
	if err := ValidateOutages([]DomainOutage{
		{At: sim.Hour, Duration: 2 * time.Hour, Domain: 0},
		{At: 2 * sim.Hour, Duration: time.Hour, Domain: 0},
	}, 3, 0, sim.Day); err == nil {
		t.Error("same-domain overlap accepted")
	}
	if err := ValidateOutages([]DomainOutage{
		{At: sim.Hour, Duration: 2 * time.Hour, Domain: 0},
		{At: 2 * sim.Hour, Duration: time.Hour, Domain: 1},
	}, 3, 0, sim.Day); err != nil {
		t.Errorf("cross-domain overlap rejected: %v", err)
	}

	// Single-domain pools cannot host a correlated-failure storm.
	single := newWorld(t, 6, 1, 2, 2)
	cfg := Config{Seed: 1, Window: Window{To: sim.Hour}, Faults: []Fault{Outages{}}}
	if _, err := Run(single.eng, single.dep, single.cat, single.logs, cfg); err == nil {
		t.Error("single-domain pool accepted")
	}

}
