package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// TestSubmitRetryTimeout drives the submit path against a group whose whole
// replica set is mid-recovery (no Ready MPPDB): the request must come back as
// a typed 504 after the configured budget instead of a hung connection, and
// succeed again once a replica returns.
func TestSubmitRetryTimeout(t *testing.T) {
	dep, plan := deployTenants(t, []string{"t1", "t2"})
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	srv.retry = runtime.RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Second, Timeout: 30 * time.Second}
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

// TestEventsCarryTheirGroupsClock: control-plane telemetry on the service
// path is stamped with the clock of the group that publishes it. Group B's
// domain runs five hours ahead while a submit to group A retries and times
// out; A's query_retried and query_timeout events carry A's time, not the
// deployment-wide maximum.
func TestEventsCarryTheirGroupsClock(t *testing.T) {
	tenants := map[string]*tenant.Tenant{}
	var logs []*workload.TenantLog
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		tn := &tenant.Tenant{ID: id, Nodes: 2, DataGB: 200, Users: 1, Suite: queries.TPCH}
		tenants[id] = tn
		logs = append(logs, &workload.TenantLog{Tenant: tn, Activity: epoch.Activity{{Start: 0, End: 20 * sim.Hour}}})
	}
	acfg := advisor.DefaultConfig()
	acfg.R = 2
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := master.New(cluster.NewPool(64), master.Options{Immediate: true}).Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	groups := dep.Groups()
	if len(groups) < 2 {
		t.Fatalf("%d groups, want two", len(groups))
	}
	a, b := groups[0], groups[1]
	b.Domain().Advance(5*sim.Hour, nil)
	a.Domain().Do(func(*sim.Engine) {
		for _, inst := range a.Instances {
			inst.SetState(mppdb.Provisioning)
		}
	})
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	srv.retry = runtime.RetryPolicy{MaxRetries: 1, Backoff: 10 * time.Second, Timeout: 30 * time.Second}
	wall := time.Unix(60, 0) // one virtual hour in
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: a.Members[0].ID, Query: "TPCH-Q6"}, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d with no ready replica, want 504", code)
	}
	seen := 0
	for _, ev := range dep.Telemetry().Events.Recent(0) {
		if ev.Group != a.Plan.ID {
			continue
		}
		seen++
		if ev.At < sim.Hour || ev.At > sim.Hour+30*sim.Second {
			t.Errorf("%s event at %v, want group %s's time (1 h + ≤ 30 s), not group %s's %v",
				ev.Type, ev.At, a.Plan.ID, b.Plan.ID, b.Now())
		}
	}
	if seen < 2 {
		t.Errorf("%d events from group %s, want a retry and a timeout", seen, a.Plan.ID)
	}
}
