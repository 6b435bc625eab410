package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// deployBatchMix deploys TPC-H tenants with admission armed under explicit
// contracts and a 1-slot admission queue, so one batch can exercise 429
// (contract), 503 (queue full), and 504 (no ready replica) side by side.
// The tenant named "down" gets a 4-node cluster, which lands it in its own
// tenant-group — its replica outage must not touch the others.
func deployBatchMix(t *testing.T, ids []string, contracts map[string]admission.Contract) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	tenants := map[string]*tenant.Tenant{}
	var logs []*workload.TenantLog
	for i, id := range ids {
		nodes := 2
		if id == "down" {
			nodes = 4
		}
		tn := &tenant.Tenant{ID: id, Nodes: nodes, DataGB: 200, Users: 1, Suite: queries.TPCH}
		tenants[id] = tn
		w := sim.Time(i) * 6 * sim.Hour
		logs = append(logs, &workload.TenantLog{
			Tenant:   tn,
			Activity: epoch.Activity{{Start: w, End: w + sim.Hour}},
		})
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
	admCfg := admission.DefaultConfig()
	admCfg.Contracts = contracts
	admCfg.MaxQueue = 1
	m := master.New(cluster.NewPool(64), master.Options{
		Immediate:     true,
		MonitorWindow: time.Hour,
		Admission:     &admCfg,
	})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return dep, plan
}

// TestBatchErrorPartitioning drives one POST /v1/submit-batch through every
// per-item failure mode at once — 400 (bad request), 422 (unknown tenant),
// 429 (contract exceeded), 503 (admission queue full), 504 (no ready
// replica) — and demands that the healthy batch-mates still come back 202:
// a failing entry never drops or degrades the rest of its batch.
func TestBatchErrorPartitioning(t *testing.T) {
	dep, plan := deployBatchMix(t, []string{"agg", "good", "down"}, map[string]admission.Contract{
		"agg":  {Rate: 1.0 / 60, Burst: 2},
		"good": {Rate: 1, Burst: 16},
		"down": {Rate: 1, Burst: 16},
	})
	gAgg, okA := dep.GroupFor("agg")
	gDown, okD := dep.GroupFor("down")
	if !okA || !okD {
		t.Fatal("tenants not deployed")
	}
	if gAgg == gDown {
		t.Fatal("test needs agg and down in different groups")
	}
	srv, err := New(dep, queries.Default(), plan, Config{
		TimeScale:     60,
		SubmitRetries: 1,
		SubmitBackoff: 10 * time.Second,
		SubmitTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Take down's whole replica set: its submits retry, time out (504), and
	// overflow the 1-slot admission queue (503).
	gDown.Domain().Do(func(*sim.Engine) {
		for _, inst := range gDown.Instances {
			inst.SetState(mppdb.Provisioning)
		}
	})

	q6 := func(id string) SubmitRequest { return SubmitRequest{Tenant: id, Query: "TPCH-Q6"} }
	var out BatchSubmitResponse
	code := post(t, ts, "/v1/submit-batch", BatchSubmitRequest{Queries: []SubmitRequest{
		q6("good"),       // 202
		q6("down"),       // 504: queues, retries, times out
		q6("agg"),        // 202: within burst
		q6("agg"),        // 202: within burst
		q6("down"),       // 503: queue already full
		q6("agg"),        // 429: burst exhausted
		q6("nosuch"),     // 422: unknown tenant
		{Tenant: "good"}, // 400: no query or sql
	}}, &out)
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", code)
	}
	want := []struct {
		status int
		kind   string
	}{
		{http.StatusAccepted, ""},
		{http.StatusGatewayTimeout, "timeout"},
		{http.StatusAccepted, ""},
		{http.StatusAccepted, ""},
		{http.StatusServiceUnavailable, "shed"},
		{http.StatusTooManyRequests, "contract_exceeded"},
		{http.StatusUnprocessableEntity, ""},
		{http.StatusBadRequest, ""},
	}
	if len(out.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.Results), len(want))
	}
	for i, w := range want {
		r := out.Results[i]
		if r.Status != w.status {
			t.Errorf("item %d: status %d, want %d (result %+v)", i, r.Status, w.status, r)
		}
		if r.Kind != w.kind {
			t.Errorf("item %d: kind %q, want %q", i, r.Kind, w.kind)
		}
		if w.status == http.StatusAccepted && (r.RoutedTo == "" || r.SubmittedAt == "") {
			t.Errorf("item %d: accepted but missing routed_to/submitted_at: %+v", i, r)
		}
		if w.status != http.StatusAccepted && w.status != http.StatusBadRequest && r.Error == "" {
			t.Errorf("item %d: failure with empty error: %+v", i, r)
		}
	}
	if out.Accepted != 3 || out.Failed != 5 {
		t.Errorf("accepted/failed = %d/%d, want 3/5", out.Accepted, out.Failed)
	}
	// The 504 burned one retry; the 503 was shed before any attempt.
	if out.Results[1].Attempts != 2 {
		t.Errorf("504 attempts = %d, want 2", out.Results[1].Attempts)
	}
	if out.Results[5].RetryAfterVirtual == "" {
		t.Errorf("429 lacks retry_after_virtual: %+v", out.Results[5])
	}
}
