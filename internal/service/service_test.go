package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// deployTenants builds and deploys a plan for 2-node TPC-H tenants with the
// given IDs (R=2, staggered activity windows).
func deployTenants(t *testing.T, ids []string) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	return deployWith(t, ids, master.Options{Immediate: true})
}

// deployWith is deployTenants under the given deployment options.
func deployWith(t *testing.T, ids []string, opts master.Options) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	return deployWithR(t, ids, 2, opts)
}

// deployWithR is deployWith under replication factor r.
func deployWithR(t *testing.T, ids []string, r int, opts master.Options) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	tenants := map[string]*tenant.Tenant{}
	var logs []*workload.TenantLog
	for i, id := range ids {
		tn := &tenant.Tenant{ID: id, Nodes: 2, DataGB: 200, Users: 1, Suite: queries.TPCH}
		tenants[id] = tn
		w := sim.Time(i) * 6 * sim.Hour
		logs = append(logs, &workload.TenantLog{
			Tenant:   tn,
			Activity: epoch.Activity{{Start: w, End: w + sim.Hour}},
		})
	}
	acfg := advisor.DefaultConfig()
	acfg.R = r
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	m := master.New(cluster.NewPool(64), opts)
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return dep, plan
}

// testServer deploys four 2-node tenants and wires the HTTP front end with a
// manually driven clock.
func testServer(t *testing.T) (*Server, *httptest.Server, func(d time.Duration)) {
	t.Helper()
	dep, plan := deployTenants(t, []string{"t1", "t2", "t3", "t4"})
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic wall clock.
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, func(d time.Duration) { wall = wall.Add(d) }
}

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndClock(t *testing.T) {
	_, ts, tick := testServer(t)
	var h map[string]any
	if code := get(t, ts, "/healthz", &h); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if h["virtual_time"] != "0d00:00:00.000" {
		t.Errorf("virtual time = %v", h["virtual_time"])
	}
	// One wall minute at 60× = one virtual hour.
	tick(time.Minute)
	get(t, ts, "/healthz", &h)
	if h["virtual_time"] != "0d01:00:00.000" {
		t.Errorf("virtual time after tick = %v", h["virtual_time"])
	}
}

func TestCatalogEndpoint(t *testing.T) {
	_, ts, _ := testServer(t)
	var out []map[string]any
	if code := get(t, ts, "/v1/catalog", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out) != 46 {
		t.Errorf("catalog size %d, want 46", len(out))
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts, _ := testServer(t)
	var out struct {
		R      int `json:"r"`
		Groups []struct {
			ID      string   `json:"id"`
			Tenants []string `json:"tenants"`
			A       int      `json:"a"`
		} `json:"groups"`
	}
	if code := get(t, ts, "/v1/plan", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.R != 2 || len(out.Groups) == 0 {
		t.Errorf("plan = %+v", out)
	}
	for _, g := range out.Groups {
		if g.A != 2 {
			t.Errorf("group %s A=%d", g.ID, g.A)
		}
	}
}

func TestSubmitAndRecords(t *testing.T) {
	_, ts, tick := testServer(t)
	var acc map[string]any
	code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "tpch-q6"}, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, acc)
	}
	if !strings.HasPrefix(acc["routed_to"].(string), "TG-") {
		t.Errorf("routed_to = %v", acc["routed_to"])
	}
	// Advance enough wall time for the query to finish (Q6 on 200GB/2n ≈
	// 6s virtual = 100ms wall at 60×; give it a minute).
	tick(time.Minute)
	var recs []map[string]any
	if code := get(t, ts, "/v1/records?tenant=t1", &recs); code != 200 {
		t.Fatalf("records status %d", code)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0]["sla_met"] != true {
		t.Errorf("record = %+v", recs[0])
	}
	// Filter excludes other tenants.
	get(t, ts, "/v1/records?tenant=t2", &recs)
	if len(recs) != 0 {
		t.Errorf("t2 records = %v", recs)
	}
}

func TestSubmitErrors(t *testing.T) {
	_, ts, _ := testServer(t)
	var out map[string]any
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "ghost", Query: "TPCH-Q1"}, &out); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown tenant status %d", code)
	}
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q99"}, &out); code != http.StatusBadRequest {
		t.Errorf("unknown class status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status %d", resp.StatusCode)
	}
}

func TestGroupsEndpoints(t *testing.T) {
	_, ts, _ := testServer(t)
	var groups []groupStats
	if code := get(t, ts, "/v1/groups", &groups); code != 200 {
		t.Fatalf("groups status %d", code)
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	var one groupStats
	if code := get(t, ts, "/v1/groups/"+groups[0].ID, &one); code != 200 {
		t.Fatalf("group status %d", code)
	}
	if one.ID != groups[0].ID || len(one.Instances) == 0 {
		t.Errorf("group = %+v", one)
	}
	if code := get(t, ts, "/v1/groups/TG-9999", nil); code != http.StatusNotFound {
		t.Errorf("missing group status %d", code)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, Config{}); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestSubmitRawSQL(t *testing.T) {
	_, ts, tick := testServer(t)
	// A re-parameterized catalog template matches and executes as it.
	var acc map[string]any
	sql := `select sum(l_extendedprice*l_discount) as revenue from lineitem
where l_shipdate >= date '1997-03-01' and l_discount between 0.03 and 0.05
  and l_quantity < 25`
	code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", SQL: sql}, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("sql submit status %d: %v", code, acc)
	}
	if acc["query"] != "TPCH-Q6" || acc["template"] != true {
		t.Errorf("sql classified as %v (template=%v)", acc["query"], acc["template"])
	}
	// Ad-hoc SQL is accepted and flagged.
	code = post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t2", SQL: "select count(*) from lineitem where l_tax > 0.01"}, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("ad-hoc status %d: %v", code, acc)
	}
	if acc["query"] != "ADHOC" || acc["template"] != false {
		t.Errorf("ad-hoc classified as %v (template=%v)", acc["query"], acc["template"])
	}
	// Non-SELECT is rejected.
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", SQL: "drop table lineitem"}, nil); code != http.StatusBadRequest {
		t.Errorf("DDL status %d", code)
	}
	// Both query and sql set → rejected.
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q1", SQL: "select 1 from t"}, nil); code != http.StatusBadRequest {
		t.Errorf("both-set status %d", code)
	}
	// Neither set → rejected.
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1"}, nil); code != http.StatusBadRequest {
		t.Errorf("neither-set status %d", code)
	}
	tick(time.Minute)
	var recs []map[string]any
	get(t, ts, "/v1/records?tenant=t2", &recs)
	if len(recs) != 1 || recs[0]["query"] != "ADHOC" {
		t.Errorf("ad-hoc record = %v", recs)
	}
}

func TestInvoicesEndpoint(t *testing.T) {
	_, ts, tick := testServer(t)
	post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q6"}, nil)
	tick(time.Hour) // one wall hour = 60 virtual hours at the test scale
	var out []struct {
		Tenant    string  `json:"tenant"`
		ActiveSec float64 `json:"active_sec"`
		Total     float64 `json:"total"`
	}
	if code := get(t, ts, "/v1/invoices", &out); code != 200 {
		t.Fatalf("invoices status %d", code)
	}
	if len(out) != 4 {
		t.Fatalf("%d invoices, want 4 (every deployed tenant)", len(out))
	}
	var active, idle bool
	for _, inv := range out {
		if inv.Total <= 0 {
			t.Errorf("%s billed %v", inv.Tenant, inv.Total)
		}
		if inv.Tenant == "t1" && inv.ActiveSec > 0 {
			active = true
		}
		if inv.Tenant == "t3" && inv.ActiveSec == 0 {
			idle = true
		}
	}
	if !active || !idle {
		t.Errorf("usage metering wrong: %+v", out)
	}
}

func TestInvoicesBeforeAnyTime(t *testing.T) {
	_, ts, _ := testServer(t)
	// Virtual time is still 0: there is nothing to meter yet.
	var out map[string]any
	if code := get(t, ts, "/v1/invoices", &out); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	if out["error"] != "no metered time yet" {
		t.Errorf("error = %v", out["error"])
	}
}

// promLine matches a Prometheus text-format sample:
//
//	name{label="v",...} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+0-9.eE]+|\+Inf)$`)

func TestMetricsEndpoint(t *testing.T) {
	_, ts, tick := testServer(t)
	post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q6"}, nil)
	tick(time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"thrifty_router_routed_total",
		"thrifty_queries_completed_total",
		"thrifty_mppdb_sojourn_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	srv, _, _ := testServer(t)
	srv2, err := New(srv.dep, srv.cat, srv.plan, Config{TimeScale: 60, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled metrics status %d, want 404", resp.StatusCode)
	}
}

func TestEventsEndpoint(t *testing.T) {
	srv, ts, _ := testServer(t)
	// Seed the stream directly; replay-driven event content is covered by the
	// integration tests at the repo root.
	hub := srv.dep.Telemetry()
	for i := 0; i < 5; i++ {
		hub.Events.Publish(telemetry.Event{Type: telemetry.EventScalingTriggered, Group: "TG-0000"})
	}
	var out []struct {
		Seq   uint64 `json:"seq"`
		At    string `json:"at"`
		Type  string `json:"type"`
		Group string `json:"group"`
	}
	if code := get(t, ts, "/v1/events", &out); code != 200 {
		t.Fatalf("events status %d", code)
	}
	if len(out) != 5 {
		t.Fatalf("%d events, want 5", len(out))
	}
	if out[0].Seq != 1 || out[0].Type != "scaling_triggered" || out[0].Group != "TG-0000" || out[0].At == "" {
		t.Errorf("event = %+v", out[0])
	}
	// ?n= caps the count, keeping the most recent.
	if code := get(t, ts, "/v1/events?n=2", &out); code != 200 || len(out) != 2 {
		t.Fatalf("n=2: status/len = %d/%d", code, len(out))
	}
	if out[1].Seq != 5 {
		t.Errorf("last seq = %d, want 5", out[1].Seq)
	}
	for _, bad := range []string{"x", "0", "-3"} {
		if code := get(t, ts, "/v1/events?n="+bad, nil); code != http.StatusBadRequest {
			t.Errorf("n=%s status %d, want 400", bad, code)
		}
	}
}

func TestSLOEndpoint(t *testing.T) {
	_, ts, tick := testServer(t)
	// All four tenants fire the heaviest query at the same instant; under
	// processor sharing the 2-node MPPDBs slow down enough to breach targets.
	for _, tn := range []string{"t1", "t2", "t3", "t4"} {
		for i := 0; i < 3; i++ {
			if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: tn, Query: "TPCH-Q9"}, nil); code != http.StatusAccepted {
				t.Fatalf("submit %s status %d", tn, code)
			}
		}
	}
	tick(time.Hour)
	var out struct {
		P       float64 `json:"p"`
		Overall float64 `json:"overall_attainment"`
		Tenants []struct {
			Tenant     string  `json:"tenant"`
			Met        int64   `json:"met"`
			Missed     int64   `json:"missed"`
			Attainment float64 `json:"attainment"`
			OK         bool    `json:"ok"`
		} `json:"tenants"`
	}
	if code := get(t, ts, "/v1/slo", &out); code != 200 {
		t.Fatalf("slo status %d", code)
	}
	if out.P != 0.999 {
		t.Errorf("p = %v", out.P)
	}
	if len(out.Tenants) == 0 {
		t.Fatal("no tenants in slo report")
	}
	var total, missed int64
	for _, tn := range out.Tenants {
		total += tn.Met + tn.Missed
		missed += tn.Missed
		if got := float64(tn.Met) / float64(tn.Met+tn.Missed); got != tn.Attainment {
			t.Errorf("%s attainment %v, want %v", tn.Tenant, tn.Attainment, got)
		}
	}
	if total != 12 {
		t.Errorf("slo accounts %d queries, want 12", total)
	}
	if missed == 0 {
		t.Error("expected contention to breach some SLAs")
	}
	if out.Overall != float64(total-missed)/float64(total) {
		t.Errorf("overall = %v", out.Overall)
	}
}

// TestConcurrentSubmitsAndScrapes hammers the API from many goroutines while
// scrapes and SLO reads run — the service-level companion to the registry
// race test (run with -race).
func TestConcurrentSubmitsAndScrapes(t *testing.T) {
	_, ts, tick := testServer(t)
	hammer(t, ts, tick, func() {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
}

// TestShardedConcurrentSubmits runs the same hammer beside /v1/groups reads:
// every group has a private clock domain, so submits to different groups
// serialize only on their own domain (run with -race).
func TestShardedConcurrentSubmits(t *testing.T) {
	srv, ts, tick := testServer(t)
	if n := len(srv.dep.Plane().Domains()); n != len(srv.dep.Groups()) {
		t.Fatalf("%d domains for %d groups", n, len(srv.dep.Groups()))
	}
	hammer(t, ts, tick, func() {
		if code := get(t, ts, "/v1/groups", nil); code != 200 {
			t.Errorf("groups status %d", code)
		}
	})
}

// hammer posts 80 single submits from eight goroutines while four others
// each call read and GET /v1/slo ten times, then checks every submit
// completed.
func hammer(t *testing.T, ts *httptest.Server, tick func(time.Duration), read func()) {
	t.Helper()
	tenants := []string{"t1", "t2", "t3", "t4"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var out map[string]any
				code := post(t, ts, "/v1/queries",
					SubmitRequest{Tenant: tenants[(g+i)%len(tenants)], Query: "TPCH-Q6"}, &out)
				if code != http.StatusAccepted {
					t.Errorf("submit status %d: %v", code, out)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				read()
				if code := get(t, ts, "/v1/slo", nil); code != 200 {
					t.Errorf("slo status %d", code)
				}
			}
		}()
	}
	wg.Wait()
	tick(time.Minute)
	var recs []map[string]any
	get(t, ts, "/v1/records", &recs)
	if len(recs) != 80 {
		t.Errorf("%d records, want 80", len(recs))
	}
}

// TestShardedEndpoints smoke-tests the read endpoints against per-group
// domains behind the one HTTP surface.
func TestShardedEndpoints(t *testing.T) {
	_, ts, tick := testServer(t)
	if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "t1", Query: "TPCH-Q6"}, nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	tick(time.Minute)
	var groups []groupStats
	if code := get(t, ts, "/v1/groups", &groups); code != 200 || len(groups) == 0 {
		t.Fatalf("groups status %d (%d groups)", code, len(groups))
	}
	var routed int64
	for _, g := range groups {
		routed += g.Routed
	}
	if routed != 1 {
		t.Errorf("routed = %d, want 1", routed)
	}
	var h map[string]any
	get(t, ts, "/healthz", &h)
	if h["virtual_time"] != "0d01:00:00.000" {
		t.Errorf("virtual time = %v", h["virtual_time"])
	}
	var recs []map[string]any
	get(t, ts, "/v1/records", &recs)
	if len(recs) != 1 {
		t.Errorf("%d records", len(recs))
	}
}
