package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
)

// TestSubmitRetryTimeout drives the submit path against a group whose whole
// replica set is mid-recovery (no Ready MPPDB): the request must come back as
// a typed 504 after the configured budget instead of a hung connection, and
// succeed again once a replica returns.
func TestSubmitRetryTimeout(t *testing.T) {
	dep, plan := deployTenants(t, []string{"t1", "t2"})
	srv, err := New(dep, queries.Default(), plan, Config{
		TimeScale:     60,
		SubmitRetries: 2,
		SubmitBackoff: 10 * time.Second,
		SubmitTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	g, ok := dep.GroupFor("t1")
	if !ok {
		t.Fatal("t1 has no group")
	}
	g.Domain().Do(func(*sim.Engine) {
		for _, inst := range g.Instances {
			inst.SetState(mppdb.Provisioning)
		}
	})

	resp, out := postRaw(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q6"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d with no ready replica, want 504 (body %v)", resp.StatusCode, out)
	}
	if out["kind"] != "timeout" {
		t.Errorf("kind = %v, want timeout", out["kind"])
	}
	// Attempts at 0 s, 10 s, 20 s exhaust MaxRetries=2.
	if out["attempts"] != float64(3) {
		t.Errorf("attempts = %v, want 3", out["attempts"])
	}
	// The 504 advises when to retry: one backoff (10 virtual seconds),
	// scaled to wall time and rounded up to a whole second.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("504 Retry-After = %q, want \"1\"", ra)
	}

	// A replica returns — the same submit is accepted on the first attempt.
	g.Domain().Do(func(*sim.Engine) {
		for _, inst := range g.Instances {
			inst.SetState(mppdb.Ready)
		}
	})
	var acc map[string]any
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q6"}, &acc); code != http.StatusAccepted {
		t.Fatalf("status %d after replicas returned, want 202", code)
	}
	if acc["retries"] != float64(0) {
		t.Errorf("retries = %v, want 0", acc["retries"])
	}
}
