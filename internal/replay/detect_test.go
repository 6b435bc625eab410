package replay_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/recovery"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// gridCeil is the first heartbeat instant at or after t: the worlds arm
// their controllers at deploy, at time zero.
func gridCeil(t sim.Time) sim.Time {
	iv := sim.Duration(recovery.HeartbeatInterval)
	return (t + iv - 1) / iv * iv
}

// detected lists the lifecycles as MPPDB@Detected, in report order.
func detected(evs []recovery.Event) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, fmt.Sprintf("%s@%v", ev.MPPDB, ev.Detected))
	}
	return out
}

// TestDetectionAtPolledInstant: with no heartbeat, a fault is still detected
// exactly where a 30-s poll would have noticed it — at the first grid
// instant at or after it — whether it lands off the grid, on a beat instant
// or while an earlier recovery of its instance reloads, and on a
// multi-domain pool when it kills a replacement mid-reload; the re-spreads
// that follow start where they did. The pinned lists were recorded while
// every controller polled. A fault-free replay schedules no shared event:
// Drive runs each call in one window.
func TestDetectionAtPolledInstant(t *testing.T) {
	t.Run("crashes", func(t *testing.T) {
		w := newWorldOn(t, 10, 2, 3, 4, 1)
		groups := w.dep.Groups()
		rng := rand.New(rand.NewSource(5))
		var fs []chaos.Crash
		for i := 0; i < 6; i++ {
			g := groups[rng.Intn(len(groups))]
			at := sim.Hour + sim.Time(rng.Int63n(int64(19*sim.Hour)))
			fs = append(fs, chaos.Crash{At: at, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
		}
		// On a beat instant, then a repeat crash while the first reloads.
		fs = append(fs, chaos.Crash{At: 5*sim.Hour + 30*sim.Second, Group: groups[0].Plan.ID, Instance: 0})
		big := groups[len(groups)-1]
		if n := big.Instances[0].Nodes(); n < 3 {
			t.Fatalf("%s has %d nodes, a repeat crash needs 3", big.Instances[0].ID(), n)
		}
		first := 9*sim.Hour + 17*sim.Second + 3*sim.Millisecond
		fs = append(fs, chaos.Crash{At: first, Group: big.Plan.ID, Instance: 0},
			chaos.Crash{At: first.Add(10*time.Minute + 1500*time.Millisecond), Group: big.Plan.ID, Instance: 0})
		res := faultRun(t, w, chaos.Window{To: sim.Day, DrainSlack: 72 * time.Hour}, chaos.Crashes{Schedule: fs})
		rep := res.Report
		if res.Applied != len(fs) {
			t.Errorf("%d of %d crashes applied", res.Applied, len(fs))
		}
		want := map[string][]sim.Time{}
		for _, f := range fs {
			g, _ := w.dep.Plane().GroupByID(f.Group)
			db := g.Instances[f.Instance].ID()
			want[db] = append(want[db], gridCeil(f.At))
		}
		got := map[string][]sim.Time{}
		for _, ev := range rep.RecoveryEvents {
			if !ev.Recovered() {
				t.Errorf("%s (detected %v) never recovered", ev.MPPDB, ev.Detected)
			}
			got[ev.MPPDB] = append(got[ev.MPPDB], ev.Detected)
		}
		for db, ts := range want {
			if slices.Sort(ts); !slices.Equal(got[db], ts) {
				t.Errorf("%s detected at %v, want %v", db, got[db], ts)
			}
		}
		pinned := []string{"TG-0000-db0@0d05:00:30.000", "TG-0000-db0@0d05:59:30.000", "TG-0000-db0@0d07:21:30.000",
			"TG-0000-db1@0d16:00:00.000", "TG-0000-db1@0d17:00:00.000", "TG-0000-db1@0d17:21:00.000",
			"TG-0001-db2@0d06:31:30.000", "TG-0001-db0@0d09:00:30.000", "TG-0001-db0@0d09:10:30.000"}
		if got := detected(rep.RecoveryEvents); !slices.Equal(got, pinned) {
			t.Errorf("detections %q\nwant %q", got, pinned)
		}
	})

	t.Run("replacement killed mid-reload", func(t *testing.T) {
		w := newWorldOn(t, 10, 2, 3, 2, 2)
		g := w.dep.Groups()[0]
		if len(g.Instances) < 2 {
			t.Fatalf("%s has %d instances, re-spread needs 2", g.Plan.ID, len(g.Instances))
		}
		crash := 3*sim.Hour + 7*sim.Second + 250*sim.Millisecond
		kill := gridCeil(crash) + 5*sim.Minute + 250*sim.Millisecond
		pool := w.dep.Pool()
		down := -1
		// The coordinator takes down the domain of the replacement that is
		// still reloading, mirrors the casualties onto their instances and
		// schedules every group's detection, as an injector must.
		w.eng.Schedule(kill, func(sim.Time) {
			evs := g.Recovery.Events()
			down = pool.DomainOf(evs[len(evs)-1].ReplacementNode)
			cas, err := pool.FailDomain(down)
			if err != nil {
				t.Error(err)
				return
			}
			for _, c := range cas {
				if _, inst, ok := w.dep.Plane().InstanceByID(c.Owner); ok {
					_ = inst.FailNode() // capped at nodes-1; the pool record drives the rest
				}
			}
			for _, x := range w.dep.Groups() {
				x.Recovery.Detect()
			}
		})
		w.eng.Schedule(kill+2*sim.Hour, func(sim.Time) {
			if err := pool.RestoreDomain(down); err != nil {
				t.Error(err)
			}
		})
		rep := faultRun(t, w, chaos.Window{To: sim.Day, DrainSlack: 72 * time.Hour},
			chaos.Crashes{Schedule: []chaos.Crash{{At: crash, Group: g.Plan.ID, Instance: 0}}}).Report
		for _, ev := range rep.RecoveryEvents {
			if want := gridCeil(crash); ev.Detected != want && ev.Detected != gridCeil(kill) {
				t.Errorf("%s detected at %v, want %v or %v", ev.MPPDB, ev.Detected, want, gridCeil(kill))
			}
			if !ev.Recovered() {
				t.Errorf("%s (detected %v) never recovered", ev.MPPDB, ev.Detected)
			}
		}
		pinned := []string{"TG-0000-db0@0d03:00:30.000", "TG-0000-db0@0d03:06:00.000", "TG-0000-db0@0d03:06:00.000",
			"TG-0000-db2@0d03:06:00.000", "TG-0000-db2@0d03:06:00.000", "TG-0001-db1@0d03:06:00.000",
			"TG-0001-db1@0d03:06:00.000"}
		if got := detected(rep.RecoveryEvents); !slices.Equal(got, pinned) {
			t.Errorf("detections %q\nwant %q", got, pinned)
		}
		var respreads []string
		for _, ev := range w.dep.Telemetry().Events.Recent(0) {
			if ev.Type == telemetry.EventRespread {
				respreads = append(respreads, fmt.Sprintf("%s@%v", ev.MPPDB, ev.At))
			}
		}
		pinned = []string{"TG-0001-db2@0d05:06:00.000", "TG-0001-db2@0d08:03:30.000",
			"TG-0000-db2@0d15:49:00.000", "TG-0000-db2@1d17:10:30.000"}
		if !slices.Equal(respreads, pinned) {
			t.Errorf("re-spread events %q\nwant %q", respreads, pinned)
		}
		if n := pool.CountState(cluster.Failed) + pool.CountState(cluster.Repairing); n != 0 {
			t.Errorf("%d nodes left failed or repairing", n)
		}
	})

	t.Run("fault-free", func(t *testing.T) {
		w := newWorld(t, 10, 2, 3)
		windows := 0
		w.dep.Plane().Domains().Gate().OnFlush(func() { windows++ })
		rep, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range w.dep.Groups() {
			if g.Recovery == nil {
				t.Errorf("group %s deployed without a recovery controller", g.Plan.ID)
			}
		}
		if len(rep.RecoveryEvents) != 0 {
			t.Errorf("recovery lifecycles without a fault: %+v", rep.RecoveryEvents)
		}
		// Run drives twice, to the window's end and through the drain; a
		// shared member event would end a window at its barrier.
		if windows != 2 {
			t.Errorf("Drive ran %d windows over its two calls, want 2", windows)
		}
	})
}

// TestFailNodeGuarded: failing a node inside a Drive window is a shared
// event's or the coordinator's to do — its detection is a shared event — so
// a plain event that tries panics, and a shared one does not.
func TestFailNodeGuarded(t *testing.T) {
	w := newWorld(t, 4, 1, 2)
	g := w.dep.Groups()[0]
	var plain, shared any
	g.Domain().Do(func(eng *sim.Engine) {
		eng.Schedule(sim.Hour, func(sim.Time) {
			defer func() { plain = recover() }()
			_ = g.Instances[0].FailNode()
		})
		eng.ScheduleShared(2*sim.Hour, func(sim.Time) {
			defer func() { shared = recover() }()
			_ = g.Instances[0].FailNode()
			g.Recovery.Detect()
		})
	})
	if _, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day}); err != nil {
		t.Fatal(err)
	}
	if msg, _ := plain.(string); msg != "sim: an instance's failed nodes written by a plain event inside a Drive window" {
		t.Errorf("plain FailNode in a window: recovered %v", plain)
	}
	if shared != nil {
		t.Errorf("shared FailNode panicked: %v", shared)
	}
}
