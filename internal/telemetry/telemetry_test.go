package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestSpansAgainstSimClock(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, 16)

	root := tr.StartSpan("query", "tenant", "T1", "class", "TPCH-Q1")
	eng.Schedule(5*sim.Second, func(sim.Time) { root.End() })
	eng.RunAll()

	spans := tr.Finished()
	if len(spans) != 1 {
		t.Fatalf("%d finished spans", len(spans))
	}
	if spans[0].Duration() != 5*sim.Second || spans[0].ID != 1 || len(spans[0].Attrs) != 2 {
		t.Errorf("root span %+v", spans[0])
	}
	// End is idempotent, also once later spans have been opened and ended.
	tr.StartSpan("later").End()
	root.End()
	if spans = tr.Finished(); len(spans) != 2 || spans[1].Name != "later" {
		t.Fatalf("spans after the second End: %+v", spans)
	}

	// A refused query's tree, read from its group's log, in commit order:
	// route, execute, query, at the refusal's instant.
	tr = NewTracer(eng, 16)
	g := &fakeGroup{}
	tr.Attach(g)
	g.apply(5*sim.Second, opFail, 1)
	if spans = tr.Finished(); len(spans) != 3 || spans[0].Name != "route" || spans[1].Name != "execute" || spans[2].Name != "query" {
		t.Fatalf("refused query's spans %+v", spans)
	}
	for _, s := range spans[:2] {
		if s.Parent != spans[2].ID || s.Trace != spans[2].Trace || s.Start != 5*sim.Second {
			t.Errorf("span %s not linked to its root at 5 s: %+v", s.Name, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("StartSpan on a tracer that reads a group did not panic")
		}
	}()
	tr.StartSpan("general")
}

func TestTracerRingBound(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, 4)
	for i := 0; i < 10; i++ {
		tr.StartSpan("s").End()
	}
	spans := tr.Finished()
	if len(spans) != 4 {
		t.Fatalf("%d retained", len(spans))
	}
	if spans[0].ID != 7 || spans[3].ID != 10 {
		t.Errorf("retained IDs %d..%d, want 7..10", spans[0].ID, spans[3].ID)
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d", tr.Dropped())
	}
}

func TestEventLogRingAndSubscribe(t *testing.T) {
	eng := sim.NewEngine()
	l := NewEventLog(eng, 3)
	ch, cancel := l.Subscribe(2)

	for i := 0; i < 5; i++ {
		eng.Schedule(sim.Time(i)*sim.Second, func(sim.Time) {
			l.Publish(Event{Type: EventSLAViolation, Tenant: "T1"})
		})
	}
	eng.RunAll()

	recent := l.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("%d retained", len(recent))
	}
	if recent[0].Seq != 3 || recent[2].Seq != 5 {
		t.Errorf("retained seqs %d..%d, want 3..5", recent[0].Seq, recent[2].Seq)
	}
	if recent[2].At != 4*sim.Second {
		t.Errorf("event At = %v", recent[2].At)
	}
	if got := l.Recent(1); len(got) != 1 || got[0].Seq != 5 {
		t.Errorf("Recent(1) = %+v", got)
	}
	if l.Total() != 5 {
		t.Errorf("total = %d", l.Total())
	}

	// The subscriber's buffer held 2; the rest were dropped, never blocking.
	if ev := <-ch; ev.Seq != 1 {
		t.Errorf("first delivered seq %d", ev.Seq)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		// one buffered event may remain; drain until closed
		if _, ok := <-ch; ok {
			t.Error("channel not closed after cancel")
		}
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 7, At: 90 * sim.Second, Type: EventScalingTriggered,
		Group: "TG-0", Tenant: "T3", Value: 0.99, Detail: "over-active [T3]"}
	want := "#7 0d00:01:30.000 scaling_triggered group=TG-0 tenant=T3 value=0.99 over-active [T3]"
	if got := ev.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSLAAccount(t *testing.T) {
	a := NewSLAAccount(0.999)
	a.Observe("T2", 0.8, true)
	a.Observe("T1", 1.5, false)
	a.Observe("T1", 0.9, true)
	a.Observe("T1", 0.9, true)

	rep := a.Report()
	if len(rep) != 2 || rep[0].Tenant != "T1" || rep[1].Tenant != "T2" {
		t.Fatalf("report = %+v", rep)
	}
	t1 := rep[0]
	if t1.Met != 2 || t1.Missed != 1 || t1.WorstNormalized != 1.5 || t1.OK {
		t.Errorf("T1 = %+v", t1)
	}
	if !rep[1].OK || rep[1].Attainment != 1 {
		t.Errorf("T2 = %+v", rep[1])
	}
	if got, want := a.Overall(), 3.0/4.0; got != want {
		t.Errorf("overall = %v, want %v", got, want)
	}
	if NewSLAAccount(0.9).Overall() != 1 {
		t.Error("empty account overall != 1")
	}
}

// TestHubConcurrency drives every hub component from many goroutines at once
// under -race: spans, events with a live subscriber, SLA observations.
func TestHubConcurrency(t *testing.T) {
	h := NewHub(sim.NewEngine(), 0.999)
	ch, cancel := h.Events.Subscribe(64)
	defer cancel()
	done := make(chan struct{})
	go func() { // consumer
		for range ch {
		}
		close(done)
	}()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				sp := h.Tracer.StartSpan("op", "worker", "w")
				h.Registry.Counter("ops_total").Inc()
				h.SLA.Observe("T1", float64(j), j%2 == 0)
				h.Events.Publish(Event{Type: EventSLAViolation, Tenant: "T1"})
				h.Tracer.StartSpan("inner").End()
				sp.End()
				h.Tracer.StartSpan("after").End()
				h.Tracer.StartSpan("after").End()
			}
		}(i)
	}
	wg.Wait()
	cancel()
	<-done

	if h.Registry.Counter("ops_total").Value() != 3000 {
		t.Errorf("ops = %d", h.Registry.Counter("ops_total").Value())
	}
	if h.Events.Total() != 3000 {
		t.Errorf("events = %d", h.Events.Total())
	}
	if rep := h.SLA.Report(); len(rep) != 1 || rep[0].Met != 1500 || rep[0].Missed != 1500 || rep[0].WorstNormalized != 299 {
		t.Errorf("SLA report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := h.Tracer.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != DefaultSpanCapacity || h.Tracer.Dropped() != 4*3000-DefaultSpanCapacity {
		t.Errorf("trace dump of %d spans, %d dropped", got, h.Tracer.Dropped())
	}
}

// TestRootHubRefusesWindowWrites: inside a sim.Domains.Drive window a group
// writes events through its view, which buffers; the root hub's own tracer
// and event log panic, since where a write lands in them depends on the
// order, and so do a view's general spans, which are the root's.
func TestRootHubRefusesWindowWrites(t *testing.T) {
	for name, write := range map[string]func(h, v *Hub){
		"Events.Publish":   func(h, _ *Hub) { h.Events.Publish(Event{Type: EventTakeOver}) },
		"Tracer.StartSpan": func(h, _ *Hub) { h.Tracer.StartSpan("s") },
		"view StartSpan":   func(_, v *Hub) { v.Tracer.StartSpan("s") },
	} {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			ds := sim.NewDomains([]*sim.Engine{eng, sim.NewEngine()})
			h := NewHub(ds, 0.99)
			h.Guard(ds.Gate())
			v, viewed := h.View(ds[0]), false
			eng.Schedule(sim.Second, func(sim.Time) {
				v.Events.Publish(Event{Type: EventTakeOver})
				viewed = true
			})
			eng.Schedule(2*sim.Second, func(sim.Time) { write(h, v) })
			defer func() {
				if recover() == nil || !viewed {
					t.Fatalf("view writes passed %v; then a root hub write inside a window did not panic", viewed)
				}
			}()
			ds.Drive(nil, sim.Hour)
		})
	}
}
