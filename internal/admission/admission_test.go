package admission

import (
	"errors"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

func TestContractFromLog(t *testing.T) {
	// A nil log gets the floors, scaled by headroom (0 defaults to 2).
	c := ContractFromLog(nil, 0)
	if c.Rate != 2*MinRate || c.Burst != 2*MinBurst {
		t.Fatalf("nil log contract %v", c)
	}

	// 10 events inside one monitor epoch over 100 s of activity: busy rate
	// 0.1 q/s, burst 10.
	tl := &workload.TenantLog{
		Sessions: []workload.SessionRef{{
			Start: 0,
			Log: &workload.SessionLog{Events: func() []workload.SessionEvent {
				evs := make([]workload.SessionEvent, 10)
				for i := range evs {
					evs[i] = workload.SessionEvent{Offset: sim.Time(i) * sim.Second, ClassID: "q", Duration: sim.Second}
				}
				return evs
			}()},
		}},
		Activity: epoch.Activity{{Start: 0, End: 100 * sim.Second}},
	}
	c = ContractFromLog(tl, 1)
	if c.Rate != 0.1 || c.Burst != 10 {
		t.Fatalf("derived contract %v, want rate=0.1 burst=10", c)
	}
	if c2 := ContractFromLog(tl, 2); c2.Rate != 0.2 || c2.Burst != 20 {
		t.Fatalf("headroom-2 contract %v", c2)
	}
	if c2 := ContractFromLog(tl, 1); c2 != c {
		t.Fatalf("derivation not deterministic: %v vs %v", c, c2)
	}

	// A sparse log hits both floors: one event over an hour of activity.
	sparse := &workload.TenantLog{
		Sessions: []workload.SessionRef{{
			Log: &workload.SessionLog{Events: []workload.SessionEvent{{ClassID: "q", Duration: sim.Second}}},
		}},
		Activity: epoch.Activity{{Start: 0, End: sim.Hour}},
	}
	c = ContractFromLog(sparse, 1)
	if c.Rate != MinRate || c.Burst != MinBurst {
		t.Fatalf("sparse contract %v, want floors", c)
	}
}

func TestBucket(t *testing.T) {
	b := newBucket(Contract{Rate: 1, Burst: 4})
	for i := 0; i < 4; i++ {
		if ok, _ := b.take(0, 1); !ok {
			t.Fatalf("burst take %d denied", i)
		}
	}
	ok, retry := b.take(0, 1)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry < sim.Second {
		t.Fatalf("retry-after %v < 1s", retry)
	}
	// Two virtual seconds refill two tokens.
	if ok, _ := b.take(2*sim.Second, 1); !ok {
		t.Fatal("refilled bucket denied")
	}
	b.punish()
	if b.tokens != 0 {
		t.Fatalf("punished bucket holds %v tokens", b.tokens)
	}
	if eta := b.eta(1); eta != sim.Second {
		t.Fatalf("eta from empty %v, want 1s", eta)
	}
}

// testController builds a controller over a live monitor, insts Ready
// instances and its own telemetry hub; onLevelChange may be nil.
func testController(t *testing.T, eng *sim.Engine, insts int, cfg Config, onLevelChange func(int)) (*Controller, *monitor.GroupMonitor) {
	t.Helper()
	mon, err := monitor.NewGroup(eng, "g0", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*mppdb.Instance, insts)
	for i := range dbs {
		dbs[i] = mppdb.New(eng, "i", 4)
	}
	c, err := New(eng, telemetry.NewHub(eng, 0.999), tenant.NewInterner(), "g0", 0.999,
		[]string{"A", "B"}, dbs, mon, nil, cfg, onLevelChange, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, mon
}

// ref resolves a member to its group ref.
func ref(t *testing.T, c *Controller, id string) tenant.Ref {
	t.Helper()
	r, ok := c.in.Lookup(id)
	if !ok {
		t.Fatalf("tenant %s not interned", id)
	}
	return r
}

// TestNewArms: New alone arms the controller — its brownout tick is queued
// one TickInterval out and its metric families are registered on the hub.
func TestNewArms(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := testController(t, eng, 1, DefaultConfig(), nil)
	if at, ok := eng.NextAt(); eng.Pending() != 1 || !ok || at != sim.Duration(c.cfg.TickInterval) {
		t.Fatalf("%d events pending, next at %v: want the one brownout tick at %v",
			eng.Pending(), at, c.cfg.TickInterval)
	}
	families := map[string]bool{}
	for _, mv := range c.tel.Registry.Snapshot() {
		families[mv.Name] = true
	}
	for _, name := range []string{"thrifty_admission_admitted_total", "thrifty_admission_throttled_total",
		"thrifty_admission_shed_total", "thrifty_admission_brownout_level"} {
		if !families[name] {
			t.Errorf("metric family %s not registered", name)
		}
	}
	eng.Run(sim.Duration(3 * c.cfg.TickInterval))
	if eng.Pending() != 1 {
		t.Errorf("%d events pending after three ticks, want the one re-keyed tick", eng.Pending())
	}
}

func TestAdmitContractEnforcement(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contracts = map[string]Contract{"A": {Rate: 1, Burst: 4}}
	c, _ := testController(t, eng, 2, cfg, nil)

	// A's burst admits, then the typed 429 with a sane Retry-After.
	for i := 0; i < 4; i++ {
		if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	err := c.AdmitRef(ref(t, c, "A"), false)
	var ce *ContractExceededError
	if !errors.As(err, &ce) {
		t.Fatalf("want ContractExceededError, got %v", err)
	}
	if ce.RetryAfter < sim.Second || ce.Brownout {
		t.Fatalf("429 %+v", ce)
	}

	// B has no contract and the zero Default is unlimited.
	for i := 0; i < 100; i++ {
		if err := c.AdmitRef(ref(t, c, "B"), false); err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
	}

	st := c.TenantStats()
	if len(st) != 2 || st[0].Tenant != "A" || st[1].Tenant != "B" {
		t.Fatalf("stats %+v", st)
	}
	if st[0].Admitted != 4 || st[0].Throttled != 1 || st[1].Admitted != 100 {
		t.Fatalf("stats %+v", st)
	}

	// Honoring Retry-After readmits.
	eng.Run(eng.Now().Add(time.Duration(ce.RetryAfter)))
	if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
		t.Fatalf("after backoff: %v", err)
	}
}

func TestAdmitStrikePolicing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contracts = map[string]Contract{"A": {Rate: 1, Burst: 4}}
	c, _ := testController(t, eng, 2, cfg, nil)

	for i := 0; i < 4; i++ {
		if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	// An open loop at 10 q/s against a 1 q/s contract: without the punitive
	// policer the bucket would still admit one query per second sustained;
	// with it, the flooder accrues strikeLimit consecutive denials within
	// its first second and then every further attempt restarts its refill
	// from zero.
	admitted := 0
	for i := 0; i < 100; i++ {
		eng.Run(eng.Now().Add(100 * time.Millisecond))
		if c.AdmitRef(ref(t, c, "A"), false) == nil {
			admitted++
		}
	}
	if admitted != 0 {
		t.Fatalf("flooder admitted %d times mid-storm", admitted)
	}
	// Actually backing off (a full token's worth of idle time) readmits.
	eng.Run(eng.Now().Add(time.Second))
	if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
		t.Fatalf("after genuine backoff: %v", err)
	}
}

func TestBrownoutTransitions(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contracts = map[string]Contract{"A": {Rate: 1, Burst: 4}, "B": {Rate: 1, Burst: 4}}
	cfg.TickInterval = time.Second
	var levels []int
	c, mon := testController(t, eng, 1, cfg, func(l int) { levels = append(levels, l) })

	eng.Run(2 * sim.Second)
	if c.Level() != LevelNormal {
		t.Fatalf("idle level %d", c.Level())
	}

	// One active tenant claims the single instance: instantaneous pressure
	// lifts the group to LevelThrottleHot at the next tick.
	mon.QueryStarted("A")
	eng.Run(4 * sim.Second)
	if c.Level() != LevelThrottleHot {
		t.Fatalf("level under pressure %d", c.Level())
	}
	// Brownout withdraws the burst allowance: A holds 4 tokens but must
	// retain hotFraction x Burst = 2 in reserve, so the third take denies
	// and the policer drains the bucket.
	if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
		t.Fatalf("hot admit 1: %v", err)
	}
	if err := c.AdmitRef(ref(t, c, "A"), false); err != nil {
		t.Fatalf("hot admit 2: %v", err)
	}
	err := c.AdmitRef(ref(t, c, "A"), false)
	var ce *ContractExceededError
	if !errors.As(err, &ce) || !ce.Brownout {
		t.Fatalf("want brownout 429, got %v", err)
	}
	if st := c.TenantStats(); st[0].Tokens != 0 {
		t.Fatalf("hot tenant not policed: %+v", st[0])
	}

	// Releasing the pressure clears the brownout.
	mon.QueryFinished(monitor.QueryRecord{Tenant: "A", Submit: eng.Now() - sim.Second, Finish: eng.Now(), SLATarget: 2 * sim.Second})
	eng.Run(6 * sim.Second)
	if c.Level() != LevelNormal {
		t.Fatalf("level after release %d", c.Level())
	}

	// Two tenants over-active against R=1 burn the RT-TTP below P: the
	// group goes to LevelShedBestEffort and best-effort traffic is shed.
	mon.QueryStarted("A")
	mon.QueryStarted("B")
	eng.Run(60 * sim.Second)
	if c.Level() != LevelShedBestEffort {
		t.Fatalf("level under violation %d (rt %v)", c.Level(), mon.RTTTP())
	}
	err = c.AdmitRef(ref(t, c, "B"), true)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedBestEffort {
		t.Fatalf("want best-effort shed, got %v", err)
	}
	// SLA traffic from a contract-abiding tenant still passes.
	if err := c.AdmitRef(ref(t, c, "B"), false); err != nil {
		t.Fatalf("SLA traffic shed during brownout: %v", err)
	}

	if len(levels) < 3 {
		t.Fatalf("level transitions %v", levels)
	}
	entered, cleared := 0, 0
	for _, ev := range c.tel.Events.Recent(0) {
		switch ev.Type {
		case telemetry.EventBrownoutEntered:
			entered++
		case telemetry.EventBrownoutCleared:
			cleared++
		}
	}
	if entered < 2 || cleared < 1 {
		t.Fatalf("brownout events: %d entered, %d cleared", entered, cleared)
	}
	if snap := c.Snapshot(); !snap.SheddingOnly || snap.Level != LevelShedBestEffort {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	mon, err := monitor.NewGroup(eng, "g", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	hub, in, cfg := telemetry.NewHub(eng, 0.999), tenant.NewInterner(), DefaultConfig()
	if _, err := New(nil, hub, in, "g", 0.999, nil, nil, mon, nil, cfg, nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, nil, in, "g", 0.999, nil, nil, mon, nil, cfg, nil, nil); err == nil {
		t.Fatal("nil hub accepted")
	}
	if _, err := New(eng, hub, nil, "g", 0.999, nil, nil, mon, nil, cfg, nil, nil); err == nil {
		t.Fatal("nil interner accepted")
	}
	if _, err := New(eng, hub, in, "g", 0.999, nil, nil, nil, nil, cfg, nil, nil); err == nil {
		t.Fatal("nil monitor accepted")
	}
	if _, err := New(eng, hub, in, "g", 0, nil, nil, mon, nil, cfg, nil, nil); err == nil {
		t.Fatal("P=0 accepted")
	}
	if eng.Pending() != 0 {
		t.Fatalf("rejected controllers left %d events queued", eng.Pending())
	}
}
