package router

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestHedgePeerWinsSingleCount: every submit routed to a confirmed-gray
// instance is duplicated onto a healthy peer; the fast peer wins every race,
// the gray copy is cancelled, and exactly one record per logical query
// reaches the observers — hedging never double-counts.
func TestHedgePeerWinsSingleCount(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2))
	var recs []monitor.QueryRecord
	r.r.OnResult(func(rec monitor.QueryRecord) { recs = append(recs, rec) })
	if err := r.dbs[0].SetSlowdown(0.25); err != nil {
		t.Fatal(err)
	}
	r.r.SetGrayFlag("db0", true)

	// Spaced wider than the slowed latency so each race finishes before the
	// next submit and affinity keeps choosing the free gray G₀.
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		r.eng.Schedule(sim.Time(i)*10*sim.Minute, func(sim.Time) {
			if _, err := r.r.Submit("a", r.cl); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		})
	}
	r.eng.RunAll()

	if len(recs) != n {
		t.Fatalf("%d records for %d hedged submits, want exactly one each", len(recs), n)
	}
	hedged, wins := r.r.HedgeStats()
	if hedged != n || wins != n {
		t.Errorf("hedged=%d peerWins=%d, want %d/%d (gray instance is 4x slower)", hedged, wins, n, n)
	}
	for _, rec := range recs {
		if rec.MPPDB == "db0" {
			t.Errorf("record for %s attributed to the losing gray instance", rec.Tenant)
		}
	}
	for i, db := range r.dbs {
		if db.Running() != 0 {
			t.Errorf("db%d still has %d executions after drain (loser not cancelled)", i, db.Running())
		}
	}
}

// TestHedgeGrayWinSingleCount: when the gray instance beats its duplicate
// (the flag outlived the fault), the hedge is withdrawn instead — still one
// record, attributed to the gray winner, with zero peer wins.
func TestHedgeGrayWinSingleCount(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2))
	var recs []monitor.QueryRecord
	r.r.OnResult(func(rec monitor.QueryRecord) { recs = append(recs, rec) })
	// db0 is flagged gray but actually healthy; the peers are the slow ones.
	for _, db := range r.dbs[1:] {
		if err := db.SetSlowdown(0.25); err != nil {
			t.Fatal(err)
		}
	}
	r.r.SetGrayFlag("db0", true)

	const n = 3
	for i := 0; i < n; i++ {
		r.eng.Schedule(sim.Time(i)*10*sim.Minute, func(sim.Time) {
			if _, err := r.r.Submit("a", r.cl); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	r.eng.RunAll()

	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	hedged, wins := r.r.HedgeStats()
	if hedged != n || wins != 0 {
		t.Errorf("hedged=%d peerWins=%d, want %d hedges and no peer wins", hedged, wins, n)
	}
	for _, rec := range recs {
		if rec.MPPDB != "db0" {
			t.Errorf("record attributed to %s, want the winning gray db0", rec.MPPDB)
		}
	}
	for i, db := range r.dbs {
		if db.Running() != 0 {
			t.Errorf("db%d still has %d executions after drain", i, db.Running())
		}
	}
}

// TestHedgeInFlight duplicates queries already stuck on an instance at the
// moment it is confirmed gray, exactly once each.
func TestHedgeInFlight(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2))
	var recs []monitor.QueryRecord
	r.r.OnResult(func(rec monitor.QueryRecord) { recs = append(recs, rec) })
	if err := r.dbs[0].SetSlowdown(0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.r.Submit("a", r.cl); err != nil {
		t.Fatal(err)
	}
	r.eng.Schedule(sim.Second, func(sim.Time) {
		r.r.SetGrayFlag("db0", true)
		if n := r.r.HedgeInFlight("db0"); n != 1 {
			t.Errorf("HedgeInFlight placed %d hedges, want 1", n)
		}
		// Already hedged: a second sweep must not duplicate again.
		if n := r.r.HedgeInFlight("db0"); n != 0 {
			t.Errorf("second HedgeInFlight placed %d hedges, want 0", n)
		}
	})
	r.eng.RunAll()

	if len(recs) != 1 {
		t.Fatalf("%d records for one in-flight-hedged query", len(recs))
	}
	if recs[0].MPPDB != "db1" {
		t.Errorf("record attributed to %s, want the healthy peer db1", recs[0].MPPDB)
	}
	if hedged, wins := r.r.HedgeStats(); hedged != 1 || wins != 1 {
		t.Errorf("hedged=%d peerWins=%d, want 1/1", hedged, wins)
	}
}

// TestHedgeWithoutPeerDegradesGracefully: a gray instance with no eligible
// duplicate target just runs the query itself — no hedge, no drop.
func TestHedgeWithoutPeerDegradesGracefully(t *testing.T) {
	r := newRig(t, 1, 2, tn("a", 2))
	var recs []monitor.QueryRecord
	r.r.OnResult(func(rec monitor.QueryRecord) { recs = append(recs, rec) })
	r.r.SetGrayFlag("db0", true)
	if _, err := r.r.Submit("a", r.cl); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	if hedged, _ := r.r.HedgeStats(); hedged != 0 {
		t.Errorf("hedged=%d with no peer available", hedged)
	}
}

// TestQuarantineRouting: a quarantined instance is skipped by routing until
// it is the only ready choice left — a query is never dropped for the sake
// of a quarantine.
func TestQuarantineRouting(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2), tn("b", 2))
	r.r.SetQuarantine("db0", true)
	db, err := r.r.Submit("a", r.cl)
	if err != nil {
		t.Fatal(err)
	}
	if db == "db0" {
		t.Error("query routed to a quarantined instance")
	}
	r.r.SetQuarantine("db1", true)
	if _, err := r.r.Submit("b", r.cl); err != nil {
		t.Errorf("submit with every instance quarantined dropped: %v", err)
	}
	r.eng.RunAll()
	if r.r.Routed() != 2 {
		t.Errorf("Routed = %d, want 2", r.r.Routed())
	}
}

// TestHedgedQuerySpans: a query's spans name the instance it was routed to,
// not the hedge peer that won it, which its record names; a query still in
// flight shows its route, and a refused submit its error.
func TestHedgedQuerySpans(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2))
	hub := telemetry.NewHub(r.eng, 0.99)
	r.r.SetTelemetry(hub)
	if err := r.dbs[0].SetSlowdown(0.25); err != nil {
		t.Fatal(err)
	}
	r.r.SetGrayFlag("db0", true)
	if _, err := r.r.Submit("a", r.cl); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if recs := r.mon.Records(); len(recs) != 1 || recs[0].MPPDB == "db0" {
		t.Fatalf("records %+v, want one won by a peer", recs)
	}
	if _, err := r.r.Submit("nobody", r.cl); err == nil {
		t.Fatal("unknown tenant routed")
	}
	for _, db := range r.dbs {
		db.SetState(mppdb.Provisioning)
	}
	if _, err := r.r.Submit("a", r.cl); err == nil {
		t.Fatal("routed with no ready MPPDB")
	}
	r.dbs[1].SetState(mppdb.Ready)
	if _, err := r.r.Submit("a", r.cl); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range hub.Tracer.Finished() {
		got = append(got, s.Name+" "+s.Attrs[0].Value)
	}
	want := []string{"route db0", "execute db0", "query tg", "route router: group tg has no ready MPPDB", "query tg", "route db1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans %q, want %q", got, want)
	}
}
