package thrifty

import (
	"runtime"
	"testing"
)

// Fingerprints pinned for TestDriveWidthInvariant, captured on the
// one-goroutine replay driver: overloadDump's trace and event sums. They
// were re-taken once when the storm's replay took the caller's log order
// instead of its group-then-member order (f127662c… / 27afdebd… before): the
// same 3,073 records by (tenant, class, submit), the same storm tallies
// (2,652 replayed, 2,000 storm submits, 1,579 throttled, 421 admitted) and
// MinCompliantAttainment 0.99471830985915488, with 444 records served on
// another instance, since arrivals at one instant route in the new order.
const (
	goldenOverloadTraceSum = "a55f736c61bce688c63b15fe8b0b41244d2859f6f46a24e97761496bc6d21d87"
	goldenOverloadEventSum = "c62928ac906a6224630be2e97cb925629912d3bce783043b61ea3237222cc061"
)

// TestDriveWidthInvariant replays the canonical golden run (scaling and a
// take-over) and the seeded overload storm at GOMAXPROCS 1, 2 and 4:
// sim.Domains.Drive runs the groups' engines that wide, and every telemetry
// dump must still hash to its pinned sum.
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
	}
}
