package scaling

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// scenario wires a 2-MPPDB tenant-group with a well-behaved tenant and a
// hog, plus a scaler with a shared pool.
type scenario struct {
	eng     *sim.Engine
	pool    *cluster.Pool
	mon     *monitor.GroupMonitor
	rt      *router.GroupRouter
	scaler  *Scaler
	cl      *queries.Class
	members []*tenant.Tenant
}

func newScenario(t *testing.T, cfg Config, poolNodes int, extra ...*tenant.Tenant) *scenario {
	t.Helper()
	eng := sim.NewEngine()
	pool := cluster.NewPool(poolNodes)
	members := append([]*tenant.Tenant{
		{ID: "hog", Nodes: 2, DataGB: 200, Users: 1},
		{ID: "good", Nodes: 2, DataGB: 200, Users: 1},
	}, extra...)
	in := tenant.NewInterner()
	var dbs []*mppdb.Instance
	for i := 0; i < cfg.R+0; i++ { // A = R MPPDBs
		db := mppdb.NewInterned(eng, "g0-db"+string(rune('0'+i)), 2, in)
		for _, m := range members {
			db.DeployTenant(m.ID, m.DataGB)
		}
		dbs = append(dbs, db)
	}
	mon, err := monitor.NewGroup(eng, "g0", cfg.R, cfg.Window)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.NewGroup(eng, "g0", dbs, members, mon)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(cluster.NewLifecycle(eng, pool, true, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Watch(&Target{Router: rt, Monitor: mon, Members: members})
	return &scenario{
		eng: eng, pool: pool, mon: mon, rt: rt, scaler: sc,
		cl:      &queries.Class{ID: "q", FixedSec: 0.5, ScanSecGB: 0.05}, // 10.5 s on 200GB/2n
		members: members,
	}
}

func testCfg() Config {
	return Config{
		P:             0.99,
		R:             1,
		CheckInterval: 5 * time.Minute,
		Window:        time.Hour,
		Epoch:         10 * sim.Second,
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(4)
	bad := []Config{
		{P: 0, R: 1, CheckInterval: 1, Window: 1, Epoch: 1},
		{P: 1.5, R: 1, CheckInterval: 1, Window: 1, Epoch: 1},
		{P: 0.9, R: 0, CheckInterval: 1, Window: 1, Epoch: 1},
		{P: 0.9, R: 1, CheckInterval: 0, Window: 1, Epoch: 1},
		{P: 0.9, R: 1, CheckInterval: 1, Window: 0, Epoch: 1},
		{P: 0.9, R: 1, CheckInterval: 1, Window: 1, Epoch: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cluster.NewLifecycle(eng, pool, true, true), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if cfg := DefaultConfig(0.999, 3); cfg.P != 0.999 || cfg.R != 3 {
		t.Error("DefaultConfig wrong")
	}
}

// driveHog submits back-to-back queries for the hog and periodic short
// queries for the good tenant, from 0 until the given horizon.
func (s *scenario) driveHog(t *testing.T, until sim.Time) {
	var hogLoop func(now sim.Time)
	hogLoop = func(now sim.Time) {
		if now >= until {
			return
		}
		// Route through the router so overrides apply.
		if _, err := s.rt.Submit("hog", s.cl); err != nil {
			t.Errorf("hog submit at %v: %v", now, err)
			return
		}
		// Resubmit before the previous query ends: the hog is continuously
		// active (its queries take ≈11 s under self-contention).
		s.eng.After(5*time.Second, hogLoop)
	}
	s.eng.After(0, hogLoop)

	var goodLoop func(now sim.Time)
	goodLoop = func(now sim.Time) {
		if now >= until {
			return
		}
		if _, err := s.rt.Submit("good", s.cl); err != nil {
			t.Errorf("good submit at %v: %v", now, err)
			return
		}
		s.eng.After(170*time.Second, goodLoop)
	}
	s.eng.After(30*time.Second, goodLoop)
}

// TestElasticScalingEndToEnd reproduces the §7.5 mechanism: a continuously
// active tenant drives RT-TTP below P; the scaler identifies it, provisions
// a dedicated MPPDB, and re-points it; the group's RT-TTP recovers. The
// identification solve sizes itself from GOMAXPROCS, so the whole episode
// runs at two widths.
func TestElasticScalingEndToEnd(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			elasticScalingEndToEnd(t)
		})
	}
}

func elasticScalingEndToEnd(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	s.scaler.Start()
	horizon := 6 * sim.Hour
	s.driveHog(t, horizon)
	s.eng.Run(horizon)

	evs := s.scaler.Events()
	if len(evs) == 0 {
		t.Fatalf("no scaling events; RTTTP=%v active=%d", s.mon.RTTTP(), s.mon.ActiveTenants())
	}
	ev := evs[0]
	if ev.Err != "" {
		t.Fatalf("scaling failed: %s", ev.Err)
	}
	if len(ev.OverActive) != 1 || ev.OverActive[0] != "hog" {
		t.Errorf("over-active = %v, want [hog]", ev.OverActive)
	}
	if ev.Nodes != 2 {
		t.Errorf("new MPPDB size = %d, want 2", ev.Nodes)
	}
	if ev.Ready <= ev.Detected {
		t.Errorf("ready %v not after detection %v", ev.Ready, ev.Detected)
	}
	// Provisioning takes startup + parallel load of 200 GB on 2 nodes.
	wantDelay := cluster.StartupTime(2) + cluster.LoadTime(200, 2, true)
	if got := ev.Ready.Sub(ev.Detected); got != wantDelay {
		t.Errorf("provisioning took %v, want %v", got, wantDelay)
	}
	// The hog is now overridden and excluded.
	if _, ok := s.rt.Override("hog"); !ok {
		t.Error("no override installed for the hog")
	}
	if !s.mon.Excluded("hog") {
		t.Error("hog not excluded from the monitor")
	}
	// Re-consolidation list includes the group.
	if list := s.scaler.ReconsolidationList(); len(list) != 1 || list[0] != "g0" {
		t.Errorf("reconsolidation list = %v", list)
	}
	// RT-TTP recovers: run 30 more hours so the window forgets the episode.
	s.driveHog(t, horizon) // note: loops ended; re-arm from now
	s.eng.Run(horizon + 30*sim.Hour)
	if got := s.mon.RTTTP(); got < 0.999 {
		t.Errorf("RT-TTP did not recover: %v", got)
	}
}

func TestScalingDisabled(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	s.scaler.Disable("g0")
	s.scaler.Start()
	s.driveHog(t, 4*sim.Hour)
	s.eng.Run(4 * sim.Hour)
	if len(s.scaler.Events()) != 0 {
		t.Errorf("disabled group scaled anyway: %+v", s.scaler.Events())
	}
	s.scaler.Enable("g0")
	s.driveHog(t, 5*sim.Hour)
	s.eng.Run(5 * sim.Hour)
	if len(s.scaler.Events()) == 0 {
		t.Error("re-enabled group never scaled")
	}
}

func TestScalingPoolExhausted(t *testing.T) {
	// Pool too small for a new 2-node MPPDB (all 2 nodes go to... give 0
	// spare).
	s := newScenario(t, testCfg(), 0)
	s.scaler.Start()
	s.driveHog(t, 4*sim.Hour)
	s.eng.Run(4 * sim.Hour)
	evs := s.scaler.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if evs[0].Err == "" {
		t.Error("exhausted pool did not surface an error")
	}
}

func TestIdentifyOverActiveEmptyWhenCalm(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	// Only the good tenant is mildly active.
	s.eng.Schedule(0, func(sim.Time) { s.rt.Submit("good", s.cl) })
	s.eng.Run(sim.Hour)
	over, err := s.scaler.IdentifyOverActive(&Target{Router: s.rt, Monitor: s.mon, Members: s.members})
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 0 {
		t.Errorf("calm group identified over-active tenants: %v", over)
	}
}

// TestIdentifyOverActiveMixedSizes: plans never mix requested sizes in a
// group, so a planned group's identification is one class and starts no
// goroutine; a hand-built target may mix them, and then two classes are
// solved at once from inside an engine callback. The largest resulting group
// (three idle 4-node tenants) stays, at either width.
func TestIdentifyOverActiveMixedSizes(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := newScenario(t, testCfg(), 8,
				&tenant.Tenant{ID: "wide-a", Nodes: 4, DataGB: 200, Users: 1},
				&tenant.Tenant{ID: "wide-b", Nodes: 4, DataGB: 200, Users: 1},
				&tenant.Tenant{ID: "wide-c", Nodes: 4, DataGB: 200, Users: 1})
			s.driveHog(t, sim.Hour)
			var got []string
			s.eng.Schedule(sim.Hour, func(sim.Time) {
				over, err := s.scaler.IdentifyOverActive(&Target{Router: s.rt, Monitor: s.mon, Members: s.members})
				if err != nil {
					t.Error(err)
				}
				for _, m := range over {
					got = append(got, m.ID)
				}
			})
			s.eng.Run(sim.Hour)
			if want := []string{"good", "hog"}; !reflect.DeepEqual(got, want) {
				t.Errorf("over-active = %v, want %v", got, want)
			}
		})
	}
}

func TestIdentifyOverActiveZeroHorizon(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	over, err := s.scaler.IdentifyOverActive(&Target{Router: s.rt, Monitor: s.mon, Members: s.members})
	if err != nil {
		t.Fatal(err)
	}
	if over != nil {
		t.Errorf("zero-horizon identification returned %v", over)
	}
}

func TestStartIsIdempotent(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	s.scaler.Start()
	s.scaler.Start()
	// One tick per interval, not two: run 2 intervals and count pending
	// indirectly via no panic / no duplicate events on a calm group.
	s.eng.Run(sim.Time(2 * testCfg().CheckInterval.Nanoseconds()))
	if len(s.scaler.Events()) != 0 {
		t.Error("calm group produced events")
	}
}

// TestScaleUpAbortsWhenStagedNodesFail: a staged node of a scale-up fails
// mid-load, so the scale-up is aborted — never made Ready or re-pointed, its
// failed node re-imaged, scaling_failed published — and the un-flagged
// group scales again on a later check.
func TestScaleUpAbortsWhenStagedNodesFail(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	hub := telemetry.NewHub(s.eng, 0.99)
	s.scaler.SetTelemetry(hub)
	s.scaler.Start()
	horizon := 6 * sim.Hour
	s.driveHog(t, horizon)
	var crash func(sim.Time)
	crash = func(sim.Time) {
		if evs := s.scaler.Events(); len(evs) > 0 && evs[0].MPPDB != "" {
			if _, err := s.pool.FailAny(evs[0].MPPDB); err != nil {
				t.Errorf("failing a staged node: %v", err)
			}
			return
		}
		s.eng.After(time.Minute, crash)
	}
	s.eng.After(time.Minute, crash)
	s.eng.Run(horizon)

	evs := s.scaler.Events()
	if len(evs) < 2 {
		t.Fatalf("%d scaling events, want the aborted one and a retry: %+v", len(evs), evs)
	}
	if evs[0].Err == "" || evs[0].Ready != 0 {
		t.Errorf("aborted scale-up: %+v", evs[0])
	}
	if evs[1].Err != "" || evs[1].Ready == 0 {
		t.Fatalf("retry failed: %+v", evs[1])
	}
	if over, ok := s.rt.Override(evs[1].OverActive[0]); !ok || over.ID() != evs[1].MPPDB {
		t.Errorf("retry %+v did not re-point its tenants", evs[1])
	}
	n := 0
	for _, ev := range hub.Events.Recent(0) {
		if ev.Type == telemetry.EventScalingFailed {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d scaling_failed events, want 1", n)
	}
	if s.pool.FailedCount(evs[0].MPPDB) != 0 || s.pool.CountState(cluster.Repairing) != 0 ||
		s.pool.CountState(cluster.Active) != evs[1].Nodes {
		t.Errorf("aborted staging not re-imaged: %+v", s.pool.Snapshot().ByState)
	}
}
