package runtime

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// degrade parks every instance of the group in Provisioning so the router
// has no Ready replica — the transient condition the retry policy shields.
func degrade(g *GroupRuntime) {
	for _, inst := range g.Instances {
		inst.SetState(mppdb.Provisioning)
	}
}

func TestSubmitWithRetrySucceedsWhenReplicaReturns(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	hub := telemetry.NewHub(eng, 0.999)
	g.Bind(sim.NewDomain(eng), hub)
	degrade(g)
	// One replica comes back mid-retry (recovery completing).
	eng.Schedule(40*sim.Second, func(sim.Time) { g.Instances[0].SetState(mppdb.Ready) })

	pol := RetryPolicy{MaxRetries: 5, Backoff: 15 * time.Second, Timeout: 5 * time.Minute}
	db, retries, err := submitOne(g, sim.Second, "t1", q1(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	if db != "TG-0001-db0" {
		t.Errorf("routed to %q", db)
	}
	// Attempts at 1 s, 16 s, 31 s fail; the 46 s attempt lands after the
	// replica returned.
	if retries != 3 {
		t.Errorf("retries = %d, want 3", retries)
	}
	if got := hub.Registry.Counter("thrifty_query_retried_total", "group", "TG-0001").Value(); got != 3 {
		t.Errorf("retried counter = %d, want 3", got)
	}
	n := 0
	for _, ev := range hub.Events.Recent(0) {
		if ev.Type == telemetry.EventQueryRetried {
			n++
		}
	}
	if n != 3 {
		t.Errorf("%d query_retried events, want 3", n)
	}
	if got := hub.Registry.Histogram("thrifty_query_retries", nil, "group", "TG-0001").Sum(); got != 3 {
		t.Errorf("retries histogram sum = %v, want 3", got)
	}
}

func TestSubmitWithRetryTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	hub := telemetry.NewHub(eng, 0.999)
	g.Bind(sim.NewDomain(eng), hub)
	degrade(g)

	pol := RetryPolicy{MaxRetries: 10, Backoff: 15 * time.Second, Timeout: 30 * time.Second}
	start := sim.Second
	_, retries, err := submitOne(g, start, "t1", q1(t), pol)
	if err == nil {
		t.Fatal("submit succeeded with no ready replica")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimeoutError", err, err)
	}
	// Attempts at 1 s, 16 s, 31 s; the next slot (46 s) would overrun the
	// 31 s deadline.
	if te.Attempts != 3 || retries != 2 {
		t.Errorf("Attempts = %d retries = %d, want 3 and 2", te.Attempts, retries)
	}
	if te.Unwrap() == nil {
		t.Error("TimeoutError lost the routing cause")
	}
	if got := hub.Registry.Counter("thrifty_query_timeout_total", "group", "TG-0001").Value(); got != 1 {
		t.Errorf("timeout counter = %d", got)
	}
	found := false
	for _, ev := range hub.Events.Recent(0) {
		if ev.Type == telemetry.EventQueryTimeout && ev.Tenant == "t1" {
			found = true
		}
	}
	if !found {
		t.Error("no query_timeout event published")
	}
	// The domain kept moving (never hung): it sits at the last attempt.
	if g.Now() != 31*sim.Second {
		t.Errorf("domain at %v, want 31s", g.Now())
	}
}

func TestSubmitWithRetryPermanentErrorNoRetry(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	g.Bind(sim.NewDomain(eng), telemetry.NewHub(eng, 0.999))

	_, retries, err := submitOne(g, sim.Second, "stranger", q1(t), DefaultRetryPolicy())
	if err == nil {
		t.Fatal("unknown tenant accepted")
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Error("permanent routing error reported as timeout")
	}
	if retries != 0 {
		t.Errorf("retried %d times on a permanent error", retries)
	}
}

func TestSubmitWithRetryZeroRetriesFailsFast(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	g.Bind(sim.NewDomain(eng), telemetry.NewHub(eng, 0.999))
	degrade(g)

	_, retries, err := submitOne(g, sim.Second, "t1", q1(t),
		RetryPolicy{MaxRetries: 0, Backoff: time.Second, Timeout: time.Minute})
	var te *TimeoutError
	if !errors.As(err, &te) || retries != 0 || te.Attempts != 1 {
		t.Errorf("zero-retry policy: retries=%d err=%v", retries, err)
	}
}
