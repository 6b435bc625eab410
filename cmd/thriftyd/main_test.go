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

// TestFlagSet pins the option surface: the ten flags that pick a
// deployment or arm a subsystem, and no tuning knob beside them.
func TestFlagSet(t *testing.T) {
	want := strings.Fields("addr admission days domains metrics p r " +
		"seed tenants timescale")
	var got []string
	new(options).flagSet().VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-gray"},
		{"-domains", "two"},
	} {
		if _, _, err := build(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestBootAndServe starts the configurations an operator starts — no flags,
// and the pool split across three failure domains (every subsystem is armed
// in both: no flag arms one that is off by default) — and drives each
// through the HTTP surface.
func TestBootAndServe(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		domains int
	}{
		{"default", nil, 1},
		{"three-domains", []string{"-domains", "3"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, srv, err := build(append([]string{"-tenants", "20", "-days", "1"}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			if n := sys.Deployment.Pool().Domains(); n != tc.domains {
				t.Errorf("pool has %d failure domains, want %d (args %v)", n, tc.domains, tc.args)
			}
			if sys.Deployment.Triage() == nil {
				t.Errorf("no scarcity triage beside the recovery controllers (args %v)", tc.args)
			}
			for _, g := range sys.Deployment.Groups() {
				if g.Recovery == nil || g.Admission == nil {
					t.Errorf("group %s: recovery %v, admission %v",
						g.Plan.ID, g.Recovery != nil, g.Admission != nil)
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
