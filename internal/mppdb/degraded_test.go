package mppdb

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// runOne submits a single query on a fresh instance prepared by prep and
// returns its observed latency.
func runOne(t *testing.T, nodes int, prep func(*Instance)) sim.Time {
	t.Helper()
	eng, m := newReady(t, nodes, "a")
	if prep != nil {
		prep(m)
	}
	var res *Result
	m.SetCompletionHandler(func(r Result, _ uint64) { res = &r })
	if _, err := m.SubmitTagged(refOf(m, "a"), testClass(0.3), 0); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if res == nil {
		t.Fatal("query never completed")
	}
	return res.Latency()
}

// TestDegradedLatencyScalesBySpeedFactor is the §4.4 degraded-mode property:
// on an otherwise idle instance with k failed nodes, query latency is exactly
// isolated / SpeedFactor = isolated · nodes/(nodes-k), for every admissible k.
func TestDegradedLatencyScalesBySpeedFactor(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 8} {
		baseline := runOne(t, nodes, nil)
		for k := 0; k < nodes; k++ {
			k := k
			eng, m := newReady(t, nodes, "a")
			for i := 0; i < k; i++ {
				if err := m.FailNode(); err != nil {
					t.Fatal(err)
				}
			}
			wantSpeed := float64(nodes-k) / float64(nodes)
			if got := m.SpeedFactor(); got != wantSpeed {
				t.Errorf("nodes=%d k=%d: SpeedFactor = %v, want %v", nodes, k, got, wantSpeed)
			}
			var res *Result
			m.SetCompletionHandler(func(r Result, _ uint64) { res = &r })
			if _, err := m.SubmitTagged(refOf(m, "a"), testClass(0.3), 0); err != nil {
				t.Fatal(err)
			}
			eng.RunAll()
			if res == nil {
				t.Fatalf("nodes=%d k=%d: query never completed", nodes, k)
			}
			want := baseline.Seconds() / wantSpeed
			if got := res.Latency().Seconds(); math.Abs(got-want) > 1e-3 {
				t.Errorf("nodes=%d k=%d: latency = %.6fs, want baseline/SpeedFactor = %.6fs",
					nodes, k, got, want)
			}
		}
	}
}

// TestFailRepairRoundTripRestoresBaseline: failing k nodes and repairing all
// of them returns the instance to the exact isolated-latency baseline.
func TestFailRepairRoundTripRestoresBaseline(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		baseline := runOne(t, nodes, nil)
		for k := 1; k < nodes; k++ {
			k := k
			got := runOne(t, nodes, func(m *Instance) {
				for i := 0; i < k; i++ {
					if err := m.FailNode(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < k; i++ {
					if err := m.RepairNode(); err != nil {
						t.Fatal(err)
					}
				}
				if m.FailedNodes() != 0 || m.SpeedFactor() != 1.0 {
					t.Fatalf("round-trip left failed=%d speed=%v", m.FailedNodes(), m.SpeedFactor())
				}
			})
			if got != baseline {
				t.Errorf("nodes=%d k=%d: round-trip latency = %v, want baseline %v",
					nodes, k, got, baseline)
			}
		}
	}
}
