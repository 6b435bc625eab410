package mppdb

import (
	"math"
	"testing"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func newSharing(t *testing.T, nodes int, tenants ...string) (*sim.Engine, *Instance) {
	t.Helper()
	eng, m := newReady(t, nodes, tenants...)
	if err := m.SetSharing(true); err != nil {
		t.Fatal(err)
	}
	return eng, m
}

// TestSharedBatchMerges: three same-class queries submitted together run as
// ONE shared scan with demand iso·(1+2σ) — the widest scan paid once, each
// further member only its σ share — instead of each paying its full isolated
// demand under processor sharing.
func TestSharedBatchMerges(t *testing.T) {
	eng, m := newSharing(t, 4, "a")
	cl := testClass(0.2) // iso = 1 + 0.2·400/4 = 21s on this instance
	var results []Result
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("a", cl, func(r Result) { results = append(results, r) }); err != nil {
			t.Fatal(err)
		}
	}
	if m.Running() != 3 || m.EffectiveRunning() != 1 {
		t.Fatalf("Running=%d EffectiveRunning=%d, want 3/1", m.Running(), m.EffectiveRunning())
	}
	eng.RunAll()
	if len(results) != 3 {
		t.Fatalf("%d completions, want 3", len(results))
	}
	iso := sim.Duration(cl.Latency(400, 4))
	demand := sim.Time(cl.SharedDemand(iso.Seconds(), 3*iso.Seconds()) * float64(sim.Second))
	if demand <= iso || demand >= 3*iso {
		t.Fatalf("batch demand %v outside (iso, 3·iso)", demand)
	}
	for _, r := range results {
		if r.Finish != demand {
			t.Errorf("member finish %v, want merged demand %v", r.Finish, demand)
		}
		if r.MaxConcurrency != 3 {
			t.Errorf("member MaxConcurrency %d, want 3 (residency)", r.MaxConcurrency)
		}
		if r.EffectiveConcurrency != 1 {
			t.Errorf("member EffectiveConcurrency %d, want 1", r.EffectiveConcurrency)
		}
	}
	if b, j := m.SharedStats(); b != 1 || j != 2 {
		t.Errorf("SharedStats = %d batches / %d joins, want 1/2", b, j)
	}
	if m.Busy() || m.Running() != 0 || m.TenantRunning("a") != 0 {
		t.Error("bookkeeping wrong after completion")
	}
}

// TestSharedLateJoinerAttaches: a same-class query arriving mid-scan attaches
// to the in-flight batch — the batch's remaining demand grows by exactly the
// joiner's marginal σ share, both members finish together at iso·(1+σ), and
// the joiner's own latency is therefore LESS than its isolated latency (it
// rides the scan already in progress).
func TestSharedLateJoinerAttaches(t *testing.T) {
	eng, m := newSharing(t, 4, "a")
	cl := testClass(0.2)
	iso := sim.Duration(cl.Latency(400, 4))
	var results []Result
	if _, err := m.Submit("a", cl, func(r Result) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	// Half the scan later, a second query of the class arrives.
	eng.Run(iso / 2)
	if _, err := m.Submit("a", cl, func(r Result) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	if m.Running() != 2 || m.EffectiveRunning() != 1 {
		t.Fatalf("Running=%d EffectiveRunning=%d, want 2/1", m.Running(), m.EffectiveRunning())
	}
	eng.RunAll()
	if len(results) != 2 {
		t.Fatalf("%d completions, want 2", len(results))
	}
	demand := sim.Time(cl.SharedDemand(iso.Seconds(), 2*iso.Seconds()) * float64(sim.Second))
	for _, r := range results {
		if r.Finish != demand {
			t.Errorf("finish %v, want %v (batch extended by the σ share only)", r.Finish, demand)
		}
	}
	// The joiner submitted at iso/2 and finished at iso·(1+σ): latency
	// iso·(σ+1/2) < iso — it shared the leader's scan.
	if lat := results[1].Latency(); lat >= iso {
		t.Errorf("joiner latency %v not below isolated %v", lat, iso)
	}
	if b, j := m.SharedStats(); b != 1 || j != 1 {
		t.Errorf("SharedStats = %d/%d, want 1/1", b, j)
	}
}

// TestSharingDistinctClassesDegenerate: queries of different classes never
// interact — with sharing on they finish exactly when a plain instance
// finishes them.
func TestSharingDistinctClassesDegenerate(t *testing.T) {
	c1, c2 := testClass(0.2), &queries.Class{ID: "U", FixedSec: 2, ScanSecGB: 0.1}
	run := func(shared bool) []Result {
		eng, m := newReady(t, 4, "a")
		if shared {
			if err := m.SetSharing(true); err != nil {
				t.Fatal(err)
			}
		}
		var out []Result
		for _, cl := range []*queries.Class{c1, c2} {
			if _, err := m.Submit("a", cl, func(r Result) { out = append(out, r) }); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunAll()
		return out
	}
	plain, shared := run(false), run(true)
	if len(plain) != 2 || len(shared) != 2 {
		t.Fatalf("completions %d/%d", len(plain), len(shared))
	}
	for i := range plain {
		if plain[i].Finish != shared[i].Finish || plain[i].Class != shared[i].Class {
			t.Errorf("result %d diverged: plain finish %v, shared %v", i, plain[i].Finish, shared[i].Finish)
		}
		if shared[i].EffectiveConcurrency != plain[i].MaxConcurrency {
			t.Errorf("result %d: effective %d, want plain concurrency %d",
				i, shared[i].EffectiveConcurrency, plain[i].MaxConcurrency)
		}
	}
}

// TestSharedBatchDegradedPaysOnce: on an instance running at half speed, a
// shared batch pays the 2× stretch exactly once — its merged demand divided
// by the speed factor — not once per member.
func TestSharedBatchDegradedPaysOnce(t *testing.T) {
	eng, m := newSharing(t, 4, "a")
	if err := m.SetSlowdown(0.5); err != nil {
		t.Fatal(err)
	}
	cl := testClass(0.2)
	var results []Result
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("a", cl, func(r Result) { results = append(results, r) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunAll()
	if len(results) != 3 {
		t.Fatalf("%d completions, want 3", len(results))
	}
	iso := sim.Duration(cl.Latency(400, 4))
	demand := sim.Time(cl.SharedDemand(iso.Seconds(), 3*iso.Seconds()) * float64(sim.Second))
	for _, r := range results {
		if got, want := r.Finish, 2*demand; got != want {
			t.Errorf("member finish %v, want %v (merged demand stretched once)", got, want)
		}
	}
}

// TestSharedHedgeCancel: a hedged duplicate that attached to a live batch
// cancels cleanly — no completion fires for it, the service-demand histogram
// never saw it, and the primary's accounting is untouched.
func TestSharedHedgeCancel(t *testing.T) {
	eng, m := newSharing(t, 4, "a")
	hub := telemetry.NewHub(eng, 0.999)
	m.SetTelemetry(hub)
	cl := testClass(0.2)
	ref, _ := m.Interner().Lookup("a")
	var done []uint64
	m.SetCompletionHandler(func(r Result, tag uint64) { done = append(done, tag) })
	if _, err := m.SubmitTagged(ref, cl, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitHedge(ref, cl, 2); err != nil {
		t.Fatal(err)
	}
	if m.Running() != 2 {
		t.Fatalf("Running=%d, want 2", m.Running())
	}
	if !m.CancelTagged(2) {
		t.Fatal("hedge cancel failed")
	}
	if m.CancelTagged(2) {
		t.Fatal("hedge cancelled twice")
	}
	if m.Running() != 1 || m.RefRunning(ref) != 1 {
		t.Fatalf("Running=%d after cancel, want 1", m.Running())
	}
	eng.RunAll()
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("completions %v, want primary tag 1 only", done)
	}
	svc := hub.Registry.Histogram("thrifty_mppdb_service_seconds", nil, "mppdb", m.ID())
	if svc.Count() != 1 {
		t.Errorf("service histogram saw %d observations, want 1 (hedge skipped)", svc.Count())
	}
	comp := hub.Registry.Counter("thrifty_mppdb_completed_total", "mppdb", m.ID())
	if comp.Value() != 1 {
		t.Errorf("completed counter %d, want 1", comp.Value())
	}
}

// TestSharedCancelLiveMember: detaching one member from a live multi-member
// batch keeps the batch's grown demand (sunk cost); cancelling a batch's
// sole member withdraws the batch entirely, and the class's next submit
// starts a fresh scan.
func TestSharedCancelLiveMember(t *testing.T) {
	eng, m := newSharing(t, 4, "a")
	cl := testClass(0.2)
	ref, _ := m.Interner().Lookup("a")
	var done []uint64
	var finish []sim.Time
	m.SetCompletionHandler(func(r Result, tag uint64) {
		done = append(done, tag)
		finish = append(finish, r.Finish)
	})
	if _, err := m.SubmitTagged(ref, cl, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitTagged(ref, cl, 2); err != nil {
		t.Fatal(err)
	}
	if !m.CancelTagged(2) {
		t.Fatal("live-member cancel failed")
	}
	if m.Running() != 1 || m.EffectiveRunning() != 1 {
		t.Fatalf("Running=%d/%d after member cancel, want 1/1", m.Running(), m.EffectiveRunning())
	}
	eng.RunAll()
	iso := sim.Duration(cl.Latency(400, 4))
	demand := sim.Time(cl.SharedDemand(iso.Seconds(), 2*iso.Seconds()) * float64(sim.Second))
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("completions %v, want [1]", done)
	}
	if finish[0] != demand {
		t.Errorf("survivor finish %v, want %v (grown demand is sunk)", finish[0], demand)
	}

	// Sole-member cancel withdraws the batch; the class restarts cleanly.
	done, finish = nil, nil
	if _, err := m.SubmitTagged(ref, cl, 4); err != nil {
		t.Fatal(err)
	}
	if !m.CancelTagged(4) {
		t.Fatal("sole-member cancel failed")
	}
	if m.Running() != 0 || m.EffectiveRunning() != 0 {
		t.Fatalf("Running=%d/%d after sole cancel, want 0/0", m.Running(), m.EffectiveRunning())
	}
	start := eng.Now()
	if _, err := m.SubmitTagged(ref, cl, 5); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(done) != 1 || done[0] != 5 {
		t.Fatalf("completions %v, want fresh tag 5", done)
	}
	if finish[0] != start+iso {
		t.Errorf("fresh batch finish %v, want %v (full isolated scan)", finish[0], start+iso)
	}
}

// TestSharingToggleGuard: the mode cannot change with queries in flight.
func TestSharingToggleGuard(t *testing.T) {
	eng, m := newReady(t, 4, "a")
	if _, err := m.Submit("a", testClass(0.2), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSharing(true); err == nil {
		t.Fatal("sharing toggled with a query in flight")
	}
	eng.RunAll()
	if err := m.SetSharing(true); err != nil {
		t.Fatal(err)
	}
}

// TestSharedWorkRatio is the executor's acceptance bar: draining k
// same-instant same-class queries as one shared scan takes (1+(k−1)σ)/k of
// the virtual time k independent scans take under processor sharing.
func TestSharedWorkRatio(t *testing.T) {
	const k = 4
	cl, ok := queries.Default().ByID("TPCH-Q8") // mid-σ: neither the widest scan alone nor k of them
	if !ok {
		t.Fatal("TPCH-Q8 missing from the default catalog")
	}
	drain := func(sharing bool) float64 {
		eng, m := newReady(t, 8, "T")
		if err := m.SetSharing(sharing); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := m.Submit("T", cl, nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunAll()
		return eng.Now().Seconds()
	}
	sigma := cl.ShareSigma()
	want := (1 + (k-1)*sigma) / k
	if got := drain(true) / drain(false); math.Abs(got-want) > 1e-9 {
		t.Errorf("merged work ratio %.6f, want (1+(k−1)σ)/k = %.6f for σ=%.3f k=%d", got, want, sigma, k)
	}
}
