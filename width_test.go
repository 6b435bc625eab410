package thrifty

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// Fingerprints pinned for TestDriveWidthInvariant, captured on the
// one-goroutine replay driver: overloadDump's trace and event sums, and the
// drift scenario's telemetry hash per arm (the paper arm's is
// internal/experiments' goldenDriftTelemetry).
const (
	goldenOverloadTraceSum = "f127662c485cefdb7336bab03d53d8e9efa4badc900ea68c6ce644a9718df11d"
	goldenOverloadEventSum = "27afdebd2e067ea1946c2ed074856d804f14d6c9fe0b524059ad6490c6b97efb"
	goldenDriftPaperHash   = "b282ce2739195adb370f63e0b4fc54acadfc66c112dff78296c62decdf9d69bc"
	goldenDriftStaticHash  = "82fc559e8fd2060861f6996858f2b671d5bad8cde655e2385dea3feea34823f1"
)

// TestDriveWidthInvariant replays the canonical golden run (scaling and a
// take-over), the seeded overload storm and the drift scenario at
// GOMAXPROCS 1, 2 and 4: sim.Domains.Drive runs the groups' engines that
// wide, and every telemetry dump must still hash to its pinned sum.
func TestDriveWidthInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(width)
		if ts, es := goldenDump(t); ts != goldenTraceSum || es != goldenEventSum {
			t.Errorf("GOMAXPROCS=%d: golden replay dumps hash to %s / %s", width, ts, es)
		}
		if ts, es := overloadDump(t); ts != goldenOverloadTraceSum || es != goldenOverloadEventSum {
			t.Errorf("GOMAXPROCS=%d: overload storm dumps hash to %s / %s", width, ts, es)
		}
		env, err := experiments.NewEnv(experiments.Scale{Name: "tiny", Tenants: 120, TenantSweep: []int{60, 120},
			Days: 7, SessionsPerClass: 4, Sizes: []int{2, 4, 8}, EpochSweep: []float64{10, 600}, ReplayGroups: 2}, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiments.DriftOutcome(env, experiments.DefaultDriftConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Paper.Hash != goldenDriftPaperHash || res.Static.Hash != goldenDriftStaticHash {
			t.Errorf("GOMAXPROCS=%d: drift telemetry hashes to %s (paper) / %s (static)", width, res.Paper.Hash, res.Static.Hash)
		}
	}
}
