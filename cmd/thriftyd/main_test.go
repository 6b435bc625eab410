package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestFlagSet pins the option surface: the thirteen flags that pick a
// deployment or arm a subsystem, and no tuning knob beside them.
func TestFlagSet(t *testing.T) {
	want := strings.Fields("addr admission days domains gray metrics p r recovery " +
		"seed tenants timescale triage")
	var got []string
	new(options).flagSet().VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-triage", "-recovery=false"},
	} {
		if _, _, err := build(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestBootAndServe starts the configurations an operator starts — no flags,
// and every subsystem armed — and drives each through the HTTP surface.
func TestBootAndServe(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"every-arm", []string{"-gray", "-domains", "3", "-triage"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, srv, err := build(append([]string{"-tenants", "20", "-days", "1"}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			armed := tc.args != nil
			if (sys.Deployment.Triage() != nil) != armed {
				t.Errorf("triage %v with args %v", sys.Deployment.Triage() != nil, tc.args)
			}
			for _, g := range sys.Deployment.Groups() {
				if g.Recovery == nil || g.Admission == nil || (g.Gray != nil) != armed {
					t.Errorf("group %s: recovery %v, admission %v, gray %v",
						g.Plan.ID, g.Recovery != nil, g.Admission != nil, g.Gray != nil)
				}
			}

			ts := httptest.NewServer(srv.Handler)
			defer ts.Close()
			var tenants []string
			for _, g := range sys.Plan.Groups {
				tenants = append(tenants, g.TenantIDs...)
			}
			do := func(method, path, body string) (int, []byte) {
				t.Helper()
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				out, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, out
			}

			query := func(i int) string {
				return fmt.Sprintf(`{"tenant":%q,"query":"TPCH-Q6"}`, tenants[i%len(tenants)])
			}
			if code, body := do("POST", "/v1/queries", query(0)); code != http.StatusAccepted {
				t.Errorf("POST /v1/queries = %d %s", code, body)
			}
			var batch []string
			for i := 1; i <= 8; i++ {
				batch = append(batch, query(i))
			}
			code, body := do("POST", "/v1/submit-batch", `{"queries":[`+strings.Join(batch, ",")+`]}`)
			var res struct{ Accepted, Failed int }
			if err := json.Unmarshal(body, &res); err != nil || code != http.StatusOK || res.Accepted != 8 || res.Failed != 0 {
				t.Errorf("POST /v1/submit-batch = %d %s (%v)", code, body, err)
			}
			if code, body := do("GET", "/healthz", ""); code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
				t.Errorf("GET /healthz = %d %s", code, body)
			}
			if code, body := do("GET", "/v1/slo", ""); code != http.StatusOK || !json.Valid(body) {
				t.Errorf("GET /v1/slo = %d %s", code, body)
			}
			if code, body := do("GET", "/metrics", ""); code != http.StatusOK || !strings.Contains(string(body), "thrifty_router_routed_total") {
				t.Errorf("GET /metrics = %d (%d bytes)", code, len(body))
			}
		})
	}
}
