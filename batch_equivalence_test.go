package thrifty

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// batchSystem deploys the small workload for the batch-equivalence tests.
func batchSystem(t *testing.T) (*System, *Workload) {
	t.Helper()
	w := smallWorkload(t)
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

// submitAllDump submits two TPCH-Q6 queries per group member — either as one
// SubmitBatchAt per group or as one call per query — drains the domains past
// every completion, and returns the telemetry dumps plus flattened outcomes.
func submitAllDump(t *testing.T, batched bool) (traces, events string, outs []runtime.BatchOutcome) {
	t.Helper()
	sys, w := batchSystem(t)
	class, ok := w.Catalog.ByID("TPCH-Q6")
	if !ok {
		t.Fatal("TPCH-Q6 missing from catalog")
	}
	pol := runtime.RetryPolicy{MaxRetries: 2, Backoff: 15 * time.Second, Timeout: time.Minute}
	at := sim.Hour
	for _, g := range sys.Deployment.Groups() {
		var items []runtime.BatchItem
		for _, m := range g.Members {
			items = append(items,
				runtime.BatchItem{Tenant: m.ID, Class: class},
				runtime.BatchItem{Tenant: m.ID, Class: class})
		}
		res := make([]runtime.BatchOutcome, len(items))
		if batched {
			g.SubmitBatchAt(at, items, res, pol)
		} else {
			for i := range items {
				g.SubmitBatchAt(at, items[i:i+1], res[i:i+1], pol)
			}
		}
		outs = append(outs, res...)
	}
	for _, g := range sys.Deployment.Groups() {
		g.Domain().Advance(at+sim.Day, func(*sim.Engine) {})
	}
	var tb, eb bytes.Buffer
	if err := sys.Telemetry().Tracer.Dump(&tb); err != nil {
		t.Fatal(err)
	}
	if err := sys.Telemetry().Events.Dump(&eb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), eb.String(), outs
}

// TestBatchSubmitEquivalence pins the batch submit path to the per-query
// one: the same queries at the same virtual instant must yield
// byte-identical telemetry and identical outcomes whether they arrive one
// SubmitBatchAt per group or one call per query.
func TestBatchSubmitEquivalence(t *testing.T) {
	seqT, seqE, seqO := submitAllDump(t, false)
	batT, batE, batO := submitAllDump(t, true)
	if seqT == "" {
		t.Fatal("empty trace dump")
	}
	if seqT != batT {
		t.Error("trace dumps differ between per-query and batched submits")
	}
	if seqE != batE {
		t.Error("event dumps differ between per-query and batched submits")
	}
	if len(seqO) != len(batO) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seqO), len(batO))
	}
	for i := range seqO {
		if seqO[i].DB != batO[i].DB || seqO[i].Retries != batO[i].Retries ||
			(seqO[i].Err == nil) != (batO[i].Err == nil) {
			t.Errorf("outcome %d differs: %+v vs %+v", i, seqO[i], batO[i])
		}
	}
}
