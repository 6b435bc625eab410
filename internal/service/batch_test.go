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
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// deployBatchMix deploys TPC-H tenants with admission armed under explicit
// contracts, so one batch can exercise 429 (contract) and 504 (no ready
// replica) side by side.
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

// TestBatchErrorPartitioning drives one POST /v1/submit-batch through the
// per-item failure modes of a deployment at brownout level 0 at once — 400
// (bad request), 422 (unknown tenant), 429 (contract exceeded), 504 (no ready
// replica) — and demands that the healthy batch-mates still come back 202:
// a failing entry never drops or degrades the rest of its batch. Admission
// decides at an item's first attempt only, so every one of the 33 submits to
// the parked group retries and times out, however many wait beside it; none
// is shed. (A 503 is a best-effort shed at brownout level 2, which
// TestGoldenFailures encodes.)
func TestBatchErrorPartitioning(t *testing.T) {
	dep, plan := deployBatchMix(t, []string{"agg", "good", "down"}, map[string]admission.Contract{
		"agg":  {Rate: 1.0 / 60, Burst: 2},
		"good": {Rate: 1, Burst: 16},
		"down": {Rate: 1, Burst: 64},
	})
	gAgg, okA := dep.GroupFor("agg")
	gDown, okD := dep.GroupFor("down")
	if !okA || !okD {
		t.Fatal("tenants not deployed")
	}
	if gAgg == gDown {
		t.Fatal("test needs agg and down in different groups")
	}
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	srv.retry = runtime.RetryPolicy{MaxRetries: 1, Backoff: 10 * time.Second, Timeout: 15 * time.Second}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Take down's whole replica set: its submits retry and time out (504).
	gDown.Domain().Do(func(*sim.Engine) {
		for _, inst := range gDown.Instances {
			inst.SetState(mppdb.Provisioning)
		}
	})

	q6 := func(id string) SubmitRequest { return SubmitRequest{Tenant: id, Query: "TPCH-Q6"} }
	type want struct {
		status int
		kind   string
	}
	var batch []SubmitRequest
	var wants []want
	add := func(q SubmitRequest, status int, kind string) {
		batch = append(batch, q)
		wants = append(wants, want{status, kind})
	}
	add(q6("good"), http.StatusAccepted, "")
	const parked = 33 // submits to the parked group; none is shed, however many wait
	for range parked - 1 {
		add(q6("down"), http.StatusGatewayTimeout, "timeout") // retries, times out
	}
	add(q6("agg"), http.StatusAccepted, "")                         // within burst
	add(q6("agg"), http.StatusAccepted, "")                         // within burst
	add(q6("down"), http.StatusGatewayTimeout, "timeout")           // the 33rd waits like the rest
	add(q6("agg"), http.StatusTooManyRequests, "contract_exceeded") // burst exhausted
	add(q6("nosuch"), http.StatusUnprocessableEntity, "")           // unknown tenant
	add(SubmitRequest{Tenant: "good"}, http.StatusBadRequest, "")   // no query or sql
	var out BatchSubmitResponse
	code := post(t, ts, "/v1/submit-batch", BatchSubmitRequest{Queries: batch}, &out)
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", code)
	}
	if len(out.Results) != len(wants) {
		t.Fatalf("%d results, want %d", len(out.Results), len(wants))
	}
	for i, w := range wants {
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
	if out.Accepted != 3 || out.Failed != parked+3 {
		t.Errorf("accepted/failed = %d/%d, want 3/%d", out.Accepted, out.Failed, parked+3)
	}
	// Each 504 burned its one retry.
	for i, r := range out.Results {
		if wants[i].status == http.StatusGatewayTimeout && r.Attempts != 2 {
			t.Errorf("item %d: 504 attempts = %d, want 2", i, r.Attempts)
		}
	}
	if r := out.Results[parked+3]; r.RetryAfterVirtual == "" {
		t.Errorf("429 lacks retry_after_virtual: %+v", r)
	}
}
