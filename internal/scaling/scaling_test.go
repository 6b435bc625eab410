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
	"repro/internal/recovery"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// scenario wires a 2-MPPDB tenant-group with a well-behaved tenant and a
// hog, plus a scaler with a shared pool and its triage.
type scenario struct {
	eng    *sim.Engine
	pool   *cluster.Pool
	triage *recovery.Triage
	mon    *monitor.GroupMonitor
	rt     *router.GroupRouter
	hub    *telemetry.Hub
	scaler *Scaler
	cl     *queries.Class
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
	tri := recovery.NewTriage(pool)
	hub := telemetry.NewHub(eng, cfg.P)
	sc, err := New(cluster.NewLifecycle(eng, pool, true, true), tri, hub, rt, mon, members, cfg,
		func() (float64, int) { return max(cfg.P-mon.RTTTP(), 0), len(members) })
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{
		eng: eng, pool: pool, triage: tri, mon: mon, rt: rt, hub: hub, scaler: sc,
		cl: &queries.Class{ID: "q", FixedSec: 0.5, ScanSecGB: 0.05}, // 10.5 s on 200GB/2n
	}
}

func testCfg() Config {
	return Config{P: 0.99, R: 1, Window: time.Hour, Epoch: 10 * sim.Second}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(4)
	rt, err := router.NewGroup(eng, "g0", []*mppdb.Instance{mppdb.New(eng, "g0-db0", 2)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(eng, 0.9)
	for i, cfg := range []Config{{P: 0, R: 1}, {P: 1.5, R: 1}, {P: 0.9, R: 0}} {
		if _, err := New(cluster.NewLifecycle(eng, pool, true, true), recovery.NewTriage(pool), hub, rt, nil, nil, cfg, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(cluster.NewLifecycle(eng, pool, true, true), recovery.NewTriage(pool), nil, rt, nil, nil,
		Config{P: 0.9, R: 1}, nil); err == nil {
		t.Error("nil hub accepted")
	}
	if eng.Pending() != 0 {
		t.Errorf("rejected scalers left %d events queued", eng.Pending())
	}
}

// TestNewArms: New alone arms the scaler — its RT-TTP check is queued one
// CheckInterval out, as a shared event, and its metric families are
// registered on the hub.
func TestNewArms(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	if at, ok := s.eng.NextAt(); s.eng.Pending() != 1 || !ok || at != sim.Duration(CheckInterval) {
		t.Fatalf("%d events pending, next at %v: want the one check at %v", s.eng.Pending(), at, CheckInterval)
	}
	families := map[string]bool{}
	for _, mv := range s.hub.Registry.Snapshot() {
		families[mv.Name] = true
	}
	for _, name := range []string{"thrifty_group_rt_ttp", "thrifty_scaling_actions_total", "thrifty_scaling_in_progress"} {
		if !families[name] {
			t.Errorf("metric family %s not registered", name)
		}
	}
	s.eng.Run(sim.Duration(3 * CheckInterval))
	if s.eng.Pending() != 1 {
		t.Errorf("%d events pending after three checks of an idle group, want the next check alone", s.eng.Pending())
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
		if _, err := s.rt.SubmitRef(s.rt.Ref("hog"), s.cl, 0); err != nil {
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
		if _, err := s.rt.SubmitRef(s.rt.Ref("good"), s.cl, 0); err != nil {
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
	// RT-TTP recovers: run 30 more hours so the window forgets the episode.
	s.driveHog(t, horizon) // note: loops ended; re-arm from now
	s.eng.Run(horizon + 30*sim.Hour)
	if got := s.mon.RTTTP(); got < 0.999 {
		t.Errorf("RT-TTP did not recover: %v", got)
	}
}

// TestScalerClaimsOnExhaustion: a scale-up the pool cannot stage queues one
// claim in the triage, for the tenants already identified. Later checks
// poll that claim — they run no further identification and record no
// failed Event — and once nodes are released the next check is granted,
// stages, and re-points the tenant. A group back at P withdraws its claim
// instead.
func TestScalerClaimsOnExhaustion(t *testing.T) {
	// One free node: a blocker holds two of the three, so the hog's 2-node
	// MPPDB cannot stage.
	newExhausted := func(t *testing.T) (*scenario, *cluster.Lifecycle) {
		s := newScenario(t, testCfg(), 3)
		blocker := cluster.NewLifecycle(s.eng, s.pool, false, false)
		if _, err := blocker.Stage("blocker", 2, nil); err != nil {
			t.Fatal(err)
		}
		return s, blocker
	}
	// waitForClaim runs until the scaler's claim is queued and returns it.
	waitForClaim := func(t *testing.T, s *scenario) recovery.TriageClaim {
		for end := sim.Time(0); end < 6*sim.Hour; {
			end += sim.Time(CheckInterval)
			s.eng.Run(end)
			if q := s.triage.Queued(); len(q) > 0 {
				return q[0]
			}
		}
		t.Fatalf("no claim queued; RT-TTP %v, events %+v", s.mon.RTTTP(), s.scaler.Events())
		return recovery.TriageClaim{}
	}

	t.Run("granted", func(t *testing.T) {
		s, blocker := newExhausted(t)
		s.driveHog(t, 12*sim.Hour)
		c := waitForClaim(t, s)
		if c.Group != "g0" || c.Owner != "g0-scale1" || c.Nodes != 2 || c.Tenants != 2 || c.Deficit <= 0 {
			t.Fatalf("claim %+v", c)
		}
		queuedAt := s.eng.Now()
		s.eng.Run(queuedAt + 4*sim.Hour)
		q := s.triage.Queued()
		if len(q) != 1 || q[0].Owner != "g0-scale1" || q[0].Polls != 24 {
			t.Fatalf("after 24 checks the queue is %+v, want the one claim polled 24 times", q)
		}
		if s.scaler.nextID != 1 {
			t.Errorf("%d identifications found tenants while the claim waited, want 1", s.scaler.nextID)
		}
		if evs := s.scaler.Events(); len(evs) != 0 {
			t.Errorf("a waiting claim recorded events: %+v", evs)
		}
		// Release the blocker's nodes; the next check is granted.
		released := s.eng.Now()
		s.eng.Schedule(released, func(sim.Time) { blocker.Abort("blocker") })
		s.eng.Run(released + sim.Time(CheckInterval))
		if q := s.triage.Queued(); len(q) != 0 {
			t.Fatalf("claim still queued after the release: %+v", q)
		}
		if enq, granted := s.triage.Stats(); enq != 1 || granted != 1 {
			t.Errorf("triage stats enqueued=%d granted=%d, want 1/1", enq, granted)
		}
		s.eng.Run(released + 6*sim.Hour)
		evs := s.scaler.Events()
		if len(evs) != 1 {
			t.Fatalf("%d events after the grant, want 1: %+v", len(evs), evs)
		}
		ev := evs[0]
		if ev.Err != "" || ev.MPPDB != "g0-scale1" || ev.Nodes != 2 || ev.Detected != queuedAt || ev.Ready <= released {
			t.Errorf("granted scale-up %+v (queued at %v, released at %v)", ev, queuedAt, released)
		}
		if over, ok := s.rt.Override(ev.OverActive[0]); !ok || over.ID() != "g0-scale1" {
			t.Errorf("granted scale-up did not re-point %v", ev.OverActive)
		}
	})

	t.Run("withdrawn", func(t *testing.T) {
		s, blocker := newExhausted(t)
		s.driveHog(t, 2*sim.Hour)
		waitForClaim(t, s)
		// The hog stops; a window later the group holds P again and the
		// next check withdraws the claim.
		s.eng.Run(2*sim.Hour + sim.Time(time.Hour) + 2*sim.Time(CheckInterval))
		if s.mon.RTTTP() < testCfg().P {
			t.Fatalf("group still below P: %v", s.mon.RTTTP())
		}
		if q := s.triage.Queued(); len(q) != 0 {
			t.Fatalf("claim not withdrawn: %+v", q)
		}
		// Nodes freed now are never granted to the withdrawn claim.
		at := s.eng.Now()
		s.eng.Schedule(at, func(sim.Time) { blocker.Abort("blocker") })
		s.eng.Run(at + sim.Hour)
		if _, granted := s.triage.Stats(); granted != 0 || len(s.scaler.Events()) != 0 {
			t.Errorf("withdrawn claim granted: %d grants, events %+v", granted, s.scaler.Events())
		}
		if _, ok := s.rt.Override("hog"); ok {
			t.Error("withdrawn claim carved the hog out")
		}
	})
}

func TestIdentifyOverActiveEmptyWhenCalm(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	// Only the good tenant is mildly active.
	s.eng.Schedule(0, func(sim.Time) { s.rt.SubmitRef(s.rt.Ref("good"), s.cl, 0) })
	s.eng.Run(sim.Hour)
	over, err := s.scaler.IdentifyOverActive()
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
				over, err := s.scaler.IdentifyOverActive()
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
	over, err := s.scaler.IdentifyOverActive()
	if err != nil {
		t.Fatal(err)
	}
	if over != nil {
		t.Errorf("zero-horizon identification returned %v", over)
	}
}

// TestScaleUpAbortsWhenStagedNodesFail: a staged node of a scale-up fails
// mid-load, so the scale-up is aborted — never made Ready or re-pointed, its
// failed node re-imaged, scaling_failed published — and the un-flagged
// group scales again on a later check.
func TestScaleUpAbortsWhenStagedNodesFail(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
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
	for _, ev := range s.hub.Events.Recent(0) {
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

// TestCheckAllocs: a telemetry-armed check of a group at P — the check every
// healthy group runs every CheckInterval — allocates nothing: the RT-TTP
// gauge is looked up once, when the hub is attached.
func TestCheckAllocs(t *testing.T) {
	s := newScenario(t, testCfg(), 8)
	if rt := s.mon.RTTTP(); rt < s.scaler.cfg.P {
		t.Fatalf("idle group at RT-TTP %v, want at least P", rt)
	}
	if n := testing.AllocsPerRun(100, s.scaler.check); n != 0 {
		t.Errorf("check allocates %v times, want 0", n)
	}
}
