package router

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestCompletionPathAllocations bounds what a query costs in allocations from
// SubmitRef to its record in the monitor's log, with telemetry attached the
// way the Deployment Master attaches it: instance, router and monitor keep
// their per-query state in pooled slots and ref-indexed slices, and the log
// takes one 40-byte entry per query, in one chunk per 4,096 of them (the
// slice of records it replaces allocated as rarely, by doubling, but 180
// bytes a query over the same stretch). A query's spans cost nothing more:
// the entry carries its route's trace sequence and routed instance, from
// which the tracer builds them at read.
func TestCompletionPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	members := []string{"a", "b", "c"}
	g := newRig(t, 2, 4, tn("a", 2), tn("b", 2), tn("c", 2))
	hub := telemetry.NewHub(g.eng, 0.99)
	for _, db := range g.dbs {
		db.SetTelemetry(hub)
	}
	g.mon.SetTelemetry(hub)
	g.r.SetTelemetry(hub)
	// Virtual time moves an hour per query: each has finished by the next.
	query := func(i int) {
		if _, err := g.r.SubmitRef(g.r.Ref(members[i%len(members)]), g.cl, 0); err != nil {
			t.Fatal(err)
		}
		g.eng.Run(g.eng.Now() + sim.Hour)
	}
	const warm, n = 100, 40_000
	for i := 0; i < warm; i++ {
		query(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		query(i)
	}
	runtime.ReadMemStats(&after)
	if got := g.mon.RecordCount(); got != warm+n {
		t.Fatalf("%d records for %d queries", got, warm+n)
	}
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d allocations for %d completed queries: %.4f per query", after.Mallocs-before.Mallocs, n, per)
	if per > 0.01 {
		t.Errorf("%.4f allocations per completed query, want at most 0.01", per)
	}
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / n; bytes > 48 {
		t.Errorf("%.1f bytes allocated per completed query, want at most 48", bytes)
	}
}

// TestTracedQueryAllocations: with telemetry attached, routing a query and
// completing it allocate nothing, from the first query on — the route and
// the end are a sequence number each — and the tracer reads the queries back
// as their three spans.
func TestTracedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := newRig(t, 2, 4, tn("a", 2))
	hub := telemetry.NewHub(g.eng, 0.99)
	for _, db := range g.dbs {
		db.SetTelemetry(hub)
	}
	g.mon.SetTelemetry(hub)
	g.r.SetTelemetry(hub)
	ref := g.r.Ref("a")
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := g.r.SubmitRef(ref, g.cl, 0); err != nil {
			t.Fatal(err)
		}
		g.eng.Run(g.eng.Now() + sim.Hour)
	}); n != 0 {
		t.Errorf("submit + complete: %v allocs, want 0", n)
	}
	if got, dropped := len(hub.Tracer.Finished()), hub.Tracer.Dropped(); got != 3*1001 || dropped != 0 {
		t.Errorf("%d spans retained, %d dropped; want %d, 0", got, dropped, 3*1001)
	}
}
