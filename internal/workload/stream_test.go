package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// oracleEvent is one entry of the reference expansion: the materialized event
// and which log, session and session event it came from.
type oracleEvent struct {
	QueryEvent
	log, sess, ev int
}

// materializeOracle is the expansion replay used before it streamed: collect
// each tenant's in-window events session by session, stable-sort them by
// time, concatenate the tenants in log order and stable-sort again. Ties
// therefore order by log, then session, then event.
func materializeOracle(logs []*TenantLog, from, to sim.Time) []oracleEvent {
	var out []oracleEvent
	for li, tl := range logs {
		var one []oracleEvent
		for si, ref := range tl.Sessions {
			if ref.Start >= to {
				break
			}
			for ei, ev := range ref.Log.Events {
				at := ref.Start + ev.Offset
				if at < from || at >= to {
					continue
				}
				one = append(one, oracleEvent{QueryEvent{
					At:        at,
					Tenant:    tl.Tenant.ID,
					ClassID:   ev.ClassID,
					User:      ev.User,
					Batch:     ev.Batch,
					SLATarget: ev.Duration,
				}, li, si, ei})
			}
		}
		sort.SliceStable(one, func(i, j int) bool { return one[i].At < one[j].At })
		out = append(out, one...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// randomLogs draws a small population on a coarse time grid, so that equal
// timestamps across tenants, across one tenant's overlapping sessions and
// within a session are the rule. It keeps the invariants Compose and
// CollectSession give: sessions in start order, events in time order. Empty
// logs, empty templates and templates shared between sessions all occur.
// User and Batch name the template and the event, so two events compare equal
// only when nothing could tell them apart.
func randomLogs(rng *rand.Rand) []*TenantLog {
	classes := []string{"TPCH-Q1", "TPCH-Q6", "TPCH-Q14"}
	templates := make([]*SessionLog, 1+rng.Intn(4))
	for i := range templates {
		s := &SessionLog{Nodes: 2, Suite: queries.TPCH}
		var off sim.Time
		for n := rng.Intn(8); n > 0; n-- {
			off += sim.Time(rng.Intn(3)) // 0 keeps the previous event's time
			s.Events = append(s.Events, SessionEvent{
				Offset:   off,
				ClassID:  classes[rng.Intn(len(classes))],
				User:     i,
				Batch:    len(s.Events),
				Duration: sim.Time(1 + rng.Intn(9)),
			})
		}
		templates[i] = s
	}
	logs := make([]*TenantLog, 1+rng.Intn(5))
	for i := range logs {
		tl := &TenantLog{Tenant: &tenant.Tenant{ID: fmt.Sprintf("T%02d", i)}}
		var start sim.Time
		for n := rng.Intn(5); n > 0; n-- {
			start += sim.Time(rng.Intn(6)) // short of a template's span: sessions overlap
			tl.Sessions = append(tl.Sessions, SessionRef{Start: start, Log: templates[rng.Intn(len(templates))]})
		}
		logs[i] = tl
	}
	return logs
}

// checkStream compares a Stream over logs with the oracle, arrival by
// arrival and field by field.
func checkStream(t *testing.T, logs []*TenantLog, from, to sim.Time) {
	t.Helper()
	want := materializeOracle(logs, from, to)
	s, err := NewStream(queries.Default(), logs, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(want) {
		t.Fatalf("[%d,%d): Len = %d, oracle has %d", from, to, s.Len(), len(want))
	}
	for i, w := range want {
		at, ok := s.Peek()
		if !ok || at != w.At {
			t.Fatalf("[%d,%d) arrival %d: Peek = %v,%v, oracle at %v", from, to, i, at, ok, w.At)
		}
		a, ok := s.Next()
		if !ok || a.QueryEvent != w.QueryEvent || a.Log != w.log {
			t.Fatalf("[%d,%d) arrival %d: got %+v of log %d, oracle %+v of log %d (session %d, event %d)",
				from, to, i, a.QueryEvent, a.Log, w.QueryEvent, w.log, w.sess, w.ev)
		}
		if a.Class == nil || a.Class.ID != w.ClassID {
			t.Fatalf("[%d,%d) arrival %d: class %v, logged %s", from, to, i, a.Class, w.ClassID)
		}
		if s.Len() != len(want)-i-1 {
			t.Fatalf("[%d,%d) after arrival %d: Len = %d", from, to, i, s.Len())
		}
	}
	if _, ok := s.Peek(); ok {
		t.Fatalf("[%d,%d): stream yields more than the oracle's %d", from, to, len(want))
	}
	if _, ok := s.Next(); ok {
		t.Fatalf("[%d,%d): Next after the end", from, to)
	}
	got := MaterializeAll(logs, from, to)
	if len(got) != len(want) {
		t.Fatalf("[%d,%d): MaterializeAll has %d events, oracle %d", from, to, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i].QueryEvent {
			t.Fatalf("[%d,%d) MaterializeAll event %d: %+v, oracle %+v", from, to, i, got[i], want[i].QueryEvent)
		}
	}
}

// TestStreamMatchesOracle checks random populations over every kind of
// window: everything, nothing, and edges that fall exactly on event times
// (an event at from is in, an event at to is out) and on session starts (a
// session starting at or past to contributes nothing).
func TestStreamMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logs := randomLogs(rng)
		all := materializeOracle(logs, -1, 1<<40)
		checkStream(t, logs, -1, 1<<40)
		checkStream(t, logs, 5, 5)
		for n := 0; n < 6 && len(all) > 0; n++ {
			from := all[rng.Intn(len(all))].At
			to := all[rng.Intn(len(all))].At
			checkStream(t, logs, from, to)
			checkStream(t, logs, from, to+1)
			checkStream(t, logs, from+1, to)
		}
		for _, tl := range logs {
			for _, ref := range tl.Sessions {
				checkStream(t, logs, 0, ref.Start)
				checkStream(t, logs, ref.Start, ref.Start+2)
			}
		}
	}
}

// FuzzStreamOrder lets the fuzzer pick the population and the window.
func FuzzStreamOrder(f *testing.F) {
	f.Add(int64(1), int64(0), int64(100))
	f.Add(int64(2), int64(3), int64(3))
	f.Add(int64(3), int64(7), int64(2))
	f.Add(int64(4), int64(-5), int64(9))
	f.Fuzz(func(t *testing.T, seed, from, to int64) {
		checkStream(t, randomLogs(rand.New(rand.NewSource(seed))), sim.Time(from), sim.Time(to))
	})
}

func TestStreamUnknownClass(t *testing.T) {
	logs := randomLogs(rand.New(rand.NewSource(1)))
	tpl := &SessionLog{Events: []SessionEvent{{Offset: 1, ClassID: "NOPE"}}}
	logs[0].Sessions = append(logs[0].Sessions, SessionRef{Start: 1 << 20, Log: tpl})
	if _, err := NewStream(queries.Default(), logs, 0, 1<<30); err == nil {
		t.Error("a class the catalog lacks was accepted")
	}
	// Outside the window the template is never opened.
	if _, err := NewStream(queries.Default(), logs, 0, 1<<20); err != nil {
		t.Errorf("class of a session past the window: %v", err)
	}
}

// TestStreamDrive checks the engine adapter: one step per arrival, each
// delivered at its own time, in stream order.
func TestStreamDrive(t *testing.T) {
	logs := randomLogs(rand.New(rand.NewSource(7)))
	want := materializeOracle(logs, 0, 1<<30)
	if len(want) == 0 {
		t.Fatal("seed draws no events")
	}
	s, err := NewStream(queries.Default(), logs, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	i := 0
	s.Drive(eng, func(a Arrival) {
		if a.At != eng.Now() || a.At != want[i].At || a.Log != want[i].log {
			t.Fatalf("arrival %d at %v log %d (engine %v), oracle at %v log %d",
				i, a.At, a.Log, eng.Now(), want[i].At, want[i].log)
		}
		i++
	})
	if eng.Pending() != 1 {
		t.Errorf("Pending = %d, want the stream's single slot", eng.Pending())
	}
	eng.RunAll()
	if i != len(want) || eng.Steps() != uint64(len(want)) {
		t.Errorf("%d arrivals in %d steps, want %d", i, eng.Steps(), len(want))
	}
	// An empty stream attaches nothing.
	empty, _ := NewStream(queries.Default(), nil, 0, 1)
	empty.Drive(eng, func(Arrival) { t.Error("empty stream fired") })
	if eng.Pending() != 0 {
		t.Error("empty stream left an event queued")
	}
}
