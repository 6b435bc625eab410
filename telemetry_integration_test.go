package thrifty

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sim"
)

// replayOnce deploys the small workload and replays one day with scaling
// armed, returning the system and its report. Identical inputs every call —
// the determinism tests diff two of these runs.
func replayOnce(t *testing.T) (*System, *ReplayReport) {
	t.Helper()
	w := smallWorkload(t)
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Groups[0].TenantIDs[0]
	scaler := DefaultScalerConfig(0.999, plan.Config.R)
	rep, err := sys.Replay(ReplayOptions{
		From:        0,
		To:          sim.Day,
		SampleEvery: 2 * time.Hour,
		Scaling:     &scaler,
		TakeOver: &TakeOver{
			Tenant:   victim,
			Start:    6 * sim.Hour,
			Interval: 3 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, rep
}

// TestTelemetryDeterminism runs the same seeded simulation twice and demands
// byte-identical trace and event output — the property that makes telemetry
// usable as experiment evidence (ISSUE acceptance criterion).
func TestTelemetryDeterminism(t *testing.T) {
	var traces, events [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		sys, _ := replayOnce(t)
		if err := sys.Telemetry().Tracer.Dump(&traces[i]); err != nil {
			t.Fatal(err)
		}
		if err := sys.Telemetry().Events.Dump(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if traces[0].Len() == 0 {
		t.Fatal("empty trace dump")
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Error("trace dumps differ between identical runs")
	}
	if events[0].Len() == 0 {
		t.Fatal("empty event dump")
	}
	if !bytes.Equal(events[0].Bytes(), events[1].Bytes()) {
		t.Error("event dumps differ between identical runs")
	}
}

// TestSLOMatchesReplayAccounting cross-checks /v1/slo against the replay
// report's own per-record accounting on the same log (ISSUE acceptance
// criterion): same per-tenant met/missed tallies, same overall attainment.
func TestSLOMatchesReplayAccounting(t *testing.T) {
	sys, rep := replayOnce(t)
	h, err := sys.Handler(ServeOptions{TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("slo status %d", resp.StatusCode)
	}
	var slo struct {
		P       float64 `json:"p"`
		Overall float64 `json:"overall_attainment"`
		Tenants []struct {
			Tenant string `json:"tenant"`
			Met    int64  `json:"met"`
			Missed int64  `json:"missed"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}

	// Replay's own accounting, from the raw records.
	type counts struct{ met, missed int64 }
	want := map[string]*counts{}
	for _, rec := range rep.Records {
		c := want[rec.Tenant]
		if c == nil {
			c = &counts{}
			want[rec.Tenant] = c
		}
		if rec.SLAMet() {
			c.met++
		} else {
			c.missed++
		}
	}
	if len(slo.Tenants) != len(want) {
		t.Fatalf("slo reports %d tenants, replay saw %d", len(slo.Tenants), len(want))
	}
	for _, ten := range slo.Tenants {
		c := want[ten.Tenant]
		if c == nil {
			t.Errorf("slo tenant %s unknown to replay", ten.Tenant)
			continue
		}
		if ten.Met != c.met || ten.Missed != c.missed {
			t.Errorf("tenant %s: slo %d/%d, replay %d/%d",
				ten.Tenant, ten.Met, ten.Missed, c.met, c.missed)
		}
	}
	if got, want := slo.Overall, rep.SLAAttainment(); got != want {
		t.Errorf("overall attainment: slo %v, replay %v", got, want)
	}
	if slo.P != 0.999 {
		t.Errorf("p = %v", slo.P)
	}
}

// TestTelemetryEndToEnd sanity-checks the whole wiring: counters move, the
// event stream saw the take-over and the scaler, and spans cover queries.
func TestTelemetryEndToEnd(t *testing.T) {
	sys, rep := replayOnce(t)
	hub := sys.Telemetry()

	var routed int64
	for _, mv := range hub.Registry.Snapshot() {
		if mv.Name == "thrifty_router_routed_total" {
			routed += int64(mv.Value)
		}
	}
	if want := int64(rep.Submitted - rep.SubmitErrors); routed != want {
		t.Errorf("routed counter %d, want %d", routed, want)
	}

	types := map[string]bool{}
	for _, ev := range hub.Events.Recent(0) {
		types[string(ev.Type)] = true
	}
	if !types["take_over"] {
		t.Errorf("no take_over event; saw %v", types)
	}

	spans := hub.Tracer.Finished()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if names["query"] == 0 || names["route"] == 0 || names["execute"] == 0 {
		t.Errorf("span names = %v", names)
	}
}

// TestShardedSpanTimesMatchRecords: the hub's clock is the furthest-ahead
// group's, which is not always when a query of another group was submitted
// or finished. Every retained query span must carry its own record's times —
// the router stamps them from its group's engine.
func TestShardedSpanTimesMatchRecords(t *testing.T) {
	w := smallWorkload(t)
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) < 2 {
		t.Fatalf("%d groups planned, need 2", len(plan.Groups))
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Replay(ReplayOptions{From: 0, To: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		tenant         string
		submit, finish sim.Time
	}
	records := make(map[key]bool, len(rep.Records))
	for _, rec := range rep.Records {
		records[key{rec.Tenant, rec.Submit, rec.Finish}] = true
	}
	queries, strays := 0, 0
	for _, s := range sys.Telemetry().Tracer.Finished() {
		if s.Name != "query" {
			continue
		}
		queries++
		if tenant := s.Attrs[1]; tenant.Key != "tenant" || !records[key{tenant.Value, s.Start, s.End}] {
			if strays++; strays <= 3 {
				t.Errorf("no record matches span %+v", s)
			}
		}
	}
	if queries == 0 || strays > 0 {
		t.Errorf("%d of %d retained query spans match no record's tenant, submit and finish", strays, queries)
	}
}
