package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/sim"
)

// postRaw posts JSON and returns the raw response (headers readable) plus
// the decoded body.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp, out
}

// deployAdmitted deploys 2-node TPC-H tenants with per-group admission armed
// under the given explicit contracts.
func deployAdmitted(t *testing.T, ids []string, contracts map[string]admission.Contract) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	admCfg := admission.DefaultConfig()
	admCfg.Contracts = contracts
	return deployWith(t, ids, master.Options{Immediate: true, MonitorWindow: time.Hour, Admission: &admCfg})
}

// TestNoisyNeighborE2E drives the noisy-neighbor scenario end to end over
// HTTP: two tenants in one group, one submitting far over its contract. The
// aggressor sees typed 429s with a sane Retry-After while the compliant
// tenant is untouched, and /v1/slo, /v1/admission, and /metrics account for
// the throttling.
func TestNoisyNeighborE2E(t *testing.T) {
	dep, plan := deployAdmitted(t, []string{"agg", "good"}, map[string]admission.Contract{
		"agg":  {Rate: 1.0 / 60, Burst: 2},
		"good": {Rate: 1, Burst: 16},
	})
	ga, okA := dep.GroupFor("agg")
	gg, okG := dep.GroupFor("good")
	if !okA || !okG || ga != gg {
		t.Fatal("tenants not consolidated into one group")
	}
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// The aggressor fires 12 back-to-back submits against a burst-2
	// contract: 2 admitted, 10 throttled with typed 429s.
	var accepted, throttled int
	for i := 0; i < 12; i++ {
		resp, out := postRaw(t, ts, "/v1/queries", SubmitRequest{Tenant: "agg", Query: "TPCH-Q6"})
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			throttled++
			if out["kind"] != "contract_exceeded" {
				t.Fatalf("429 kind %v", out["kind"])
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After %q", resp.Header.Get("Retry-After"))
			}
			if out["retry_after_virtual"] == "" {
				t.Fatal("429 lacks retry_after_virtual")
			}
		default:
			t.Fatalf("aggressor submit %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}
	if accepted != 2 || throttled != 10 {
		t.Fatalf("aggressor saw %d accepted / %d throttled, want 2/10", accepted, throttled)
	}

	// The compliant tenant paces its submissions (each query finishes
	// before the next: 10 wall minutes = 10 virtual hours apart) and is
	// never throttled.
	for i := 0; i < 5; i++ {
		if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "good", Query: "TPCH-Q6"}, nil); code != http.StatusAccepted {
			t.Fatalf("compliant submit %d: status %d", i, code)
		}
		wall = wall.Add(10 * time.Minute)
	}

	var slo struct {
		P       float64 `json:"p"`
		Tenants []struct {
			Tenant     string  `json:"tenant"`
			Attainment float64 `json:"attainment"`
			OK         bool    `json:"ok"`
			Throttled  int64   `json:"throttled"`
			Shed       int64   `json:"shed"`
		} `json:"tenants"`
	}
	if code := get(t, ts, "/v1/slo", &slo); code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", code)
	}
	rows := map[string]int{}
	for i, tn := range slo.Tenants {
		rows[tn.Tenant] = i
	}
	gi, ok := rows["good"]
	if !ok {
		t.Fatalf("/v1/slo lacks the compliant tenant: %+v", slo.Tenants)
	}
	if g := slo.Tenants[gi]; !g.OK || g.Attainment < plan.Config.P || g.Throttled != 0 {
		t.Fatalf("compliant tenant SLO %+v (P=%v)", g, plan.Config.P)
	}
	ai, ok := rows["agg"]
	if !ok {
		t.Fatalf("/v1/slo lacks the aggressor: %+v", slo.Tenants)
	}
	if a := slo.Tenants[ai]; a.Throttled != 10 {
		t.Fatalf("aggressor SLO %+v, want throttled=10", a)
	}

	var adm struct {
		Enabled bool `json:"enabled"`
		Groups  []struct {
			Group        string `json:"group"`
			Level        int    `json:"level"`
			SheddingOnly bool   `json:"shedding_only"`
			Tenants      []struct {
				Tenant    string  `json:"tenant"`
				Rate      float64 `json:"rate_qps"`
				Admitted  int64   `json:"admitted"`
				Throttled int64   `json:"throttled"`
			} `json:"tenants"`
		} `json:"groups"`
	}
	if code := get(t, ts, "/v1/admission", &adm); code != http.StatusOK {
		t.Fatalf("/v1/admission status %d", code)
	}
	if !adm.Enabled || len(adm.Groups) == 0 {
		t.Fatalf("/v1/admission %+v", adm)
	}
	found := false
	for _, g := range adm.Groups {
		for _, tn := range g.Tenants {
			if tn.Tenant == "agg" {
				found = true
				if tn.Admitted != 2 || tn.Throttled != 10 {
					t.Fatalf("aggressor admission stats %+v", tn)
				}
			}
		}
	}
	if !found {
		t.Fatal("/v1/admission lacks the aggressor")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "thrifty_admission_throttled_total") ||
		!strings.Contains(body, "thrifty_admission_admitted_total") {
		t.Fatal("metrics lack admission counters")
	}
}

// TestSheddingOnlyReadPath is the satellite-b regression: while a group is
// shedding-only (brownout level 2) its clock domain may be busy or even
// wedged, and the read endpoints must still answer from cached stats
// instead of advancing or locking the group.
func TestSheddingOnlyReadPath(t *testing.T) {
	dep, plan := deployTenants(t, []string{"t1", "t2", "t3", "t4"})
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Mark each group shedding-only and warm its stats cache, in the
	// brownout tick's order.
	for _, g := range dep.Groups() {
		g := g
		g.SetSheddingOnly(true)
		g.Domain().Do(func(*sim.Engine) { g.CacheStats() })
	}

	// Wedge the shared clock domain: a stand-in for a group drowning in
	// overload work. Read endpoints must not wait for it.
	release := make(chan struct{})
	held := make(chan struct{})
	go dep.Groups()[0].Domain().Do(func(*sim.Engine) {
		close(held)
		<-release
	})
	<-held
	defer close(release)

	// Move the wall clock so the read path would have to advance virtual
	// time if the shedding-only skip were broken.
	wall = wall.Add(10 * time.Second)

	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/v1/groups", "/metrics", "/healthz", "/v1/admission"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while shedding-only: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while shedding-only: status %d", path, resp.StatusCode)
		}
	}

	var stats []map[string]any
	if code := get(t, ts, "/v1/groups", &stats); code != http.StatusOK || len(stats) == 0 {
		t.Fatalf("/v1/groups status %d len %d", code, len(stats))
	}
}
