package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/queries"
)

// TestScalingServed drives the §5.1 loop through the HTTP front end: in a
// deployment armed with Scaling, a take-over submitted through POST
// /v1/queries takes the group below P, and /v1/events shows the scaler's
// scaling_triggered and then its scaling_ready.
func TestScalingServed(t *testing.T) {
	// R=1, so the take-over overlapping its groupmate's queries violates.
	dep, plan := deployWithR(t, []string{"hog", "good"}, 1,
		master.Options{Immediate: true, MonitorWindow: time.Hour, Scaling: true})
	if len(plan.Groups) != 1 || dep.Groups()[0].Scaler == nil {
		t.Fatalf("want one group with a scaler, got %d groups", len(plan.Groups))
	}
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	type event struct {
		Type  string `json:"type"`
		Group string `json:"group"`
		MPPDB string `json:"mppdb"`
	}
	// One wall second is one virtual minute: the hog submits every minute
	// and its groupmate every five, for up to 12 virtual hours.
	var triggered, ready string
	for step := 0; step < 12*60 && ready == ""; step++ {
		if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "hog", Query: "TPCH-Q1"}, nil); code != http.StatusAccepted {
			t.Fatalf("hog submit at step %d: status %d", step, code)
		}
		if step%5 == 0 {
			if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: "good", Query: "TPCH-Q6"}, nil); code != http.StatusAccepted {
				t.Fatalf("good submit at step %d: status %d", step, code)
			}
		}
		wall = wall.Add(time.Second)
		if step%10 != 0 {
			continue
		}
		var evs []event
		if code := get(t, ts, "/v1/events?n=1000", &evs); code != http.StatusOK {
			t.Fatalf("/v1/events status %d", code)
		}
		for _, ev := range evs {
			switch ev.Type {
			case "scaling_triggered":
				triggered = ev.MPPDB
			case "scaling_ready":
				if triggered == "" || ev.MPPDB != triggered {
					t.Fatalf("scaling_ready for %q before its scaling_triggered (%q)", ev.MPPDB, triggered)
				}
				ready = ev.MPPDB
			}
		}
	}
	if ready == "" {
		t.Fatalf("no scaling_ready within 12 virtual hours (triggered %q)", triggered)
	}
	if evs := dep.Groups()[0].Scaler.Events(); len(evs) != 1 || evs[0].MPPDB != ready || evs[0].Err != "" {
		t.Errorf("scaler events %+v, want the one scale-up %s", evs, ready)
	}
}
