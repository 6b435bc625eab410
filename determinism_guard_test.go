package thrifty

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/recovery/chaos"
	"repro/internal/sim"
)

// Golden SHA-256 hashes of the canonical replay's telemetry dumps. The
// event dump was captured on the pre-sharding runtime (before
// internal/runtime and the per-group clock domains existed); the trace dump
// was re-taken when every group moved to its own domain, which swaps only
// same-instant spans of different groups. The experiment path must stay
// byte-identical across refactors: every figure in §7 depends on the
// deterministic event interleaving these dumps encode. If a change
// legitimately alters the replay (new workload defaults, new telemetry
// sites), re-capture with:
//
//	go test -run TestSharedDomainReplayGolden -v . 2>&1 | grep -E 'traces|events'
const (
	goldenTraceSum = "89059d0d9495f715ba534a20f3ca8f5a1018a7643a58a0f7fb28d38e43f490bf"
	goldenEventSum = "f7b23992bddc97af98cfd6830968e7e6b8e02cd936e642534959045e48835d44"
)

// goldenDump runs the canonical replay (replayOnce) and hashes
// its telemetry dumps.
func goldenDump(t *testing.T) (traceSum, eventSum string) {
	t.Helper()
	sys, _ := replayOnce(t)
	var traces, events bytes.Buffer
	if err := sys.Telemetry().Tracer.Dump(&traces); err != nil {
		t.Fatal(err)
	}
	if err := sys.Telemetry().Events.Dump(&events); err != nil {
		t.Fatal(err)
	}
	ts := sha256.Sum256(traces.Bytes())
	es := sha256.Sum256(events.Bytes())
	return hex.EncodeToString(ts[:]), hex.EncodeToString(es[:])
}

// overloadDump deploys the small workload with admission armed, drives the
// seeded noisy-tenant storm against it, and hashes the telemetry dumps.
// Identical inputs every call.
func overloadDump(t *testing.T) (traceSum, eventSum string) {
	t.Helper()
	w := smallWorkload(t)
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAdmissionConfig()
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 64, Admission: &acfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.Config{Seed: 7, Window: chaos.Window{To: sim.Day}, Faults: []chaos.Fault{chaos.Storm{Aggressors: 1}}}
	if _, err := chaos.Run(sys.Engine, sys.Deployment, w.Catalog, w.Logs, cfg); err != nil {
		t.Fatal(err)
	}
	var traces, events bytes.Buffer
	if err := sys.Telemetry().Tracer.Dump(&traces); err != nil {
		t.Fatal(err)
	}
	if err := sys.Telemetry().Events.Dump(&events); err != nil {
		t.Fatal(err)
	}
	if traces.Len() == 0 || events.Len() == 0 {
		t.Fatal("empty telemetry dump after overload run")
	}
	ts := sha256.Sum256(traces.Bytes())
	es := sha256.Sum256(events.Bytes())
	return hex.EncodeToString(ts[:]), hex.EncodeToString(es[:])
}

// TestOverloadReplayDeterminism runs the same seeded overload storm twice —
// admission controller, brownout ticks, punitive policing and all — and
// demands byte-identical telemetry. The storm path must be as replayable as
// the plain replay path, or overload experiments stop being evidence.
func TestOverloadReplayDeterminism(t *testing.T) {
	t1, e1 := overloadDump(t)
	t2, e2 := overloadDump(t)
	if t1 != t2 {
		t.Errorf("trace dumps differ between identical overload runs:\n run1 %s\n run2 %s", t1, t2)
	}
	if e1 != e2 {
		t.Errorf("event dumps differ between identical overload runs:\n run1 %s\n run2 %s", e1, e2)
	}
}

// TestSharedDomainReplayGolden pins the replay to the golden output: same
// seed, byte-identical telemetry dumps.
func TestSharedDomainReplayGolden(t *testing.T) {
	traceSum, eventSum := goldenDump(t)
	t.Logf("traces: %s", traceSum)
	t.Logf("events: %s", eventSum)
	if traceSum != goldenTraceSum {
		t.Errorf("trace dump drifted from pre-refactor golden:\n got  %s\n want %s", traceSum, goldenTraceSum)
	}
	if eventSum != goldenEventSum {
		t.Errorf("event dump drifted from pre-refactor golden:\n got  %s\n want %s", eventSum, goldenEventSum)
	}
}
