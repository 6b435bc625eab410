// Package telemetry is Thrifty's self-observation layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-boundary latency
// histograms with Prometheus text encoding), causally-linked trace spans
// kept as compact entries in a bounded ring until a reader asks for records,
// a bounded subscribable stream of SLA-relevant events, and per-tenant SLA
// attainment accounting.
//
// The whole layer is deterministic under the simulator: span and event
// identifiers are monotonic counters (never random), timestamps come from
// the injected Clock (virtual or wall time) or, for a routed query's spans,
// from its router's engine, and every dump/encoding orders its output totally
// — two runs of the same seeded simulation emit byte-identical traces and
// event logs.
//
// A Hub bundles one of each component and is what the instrumented
// subsystems (router, mppdb, monitor, scaling, replay, service) share. All
// components are safe for concurrent use; instrumentation sites treat a nil
// Hub as "telemetry disabled".
package telemetry

import "repro/internal/sim"

// Clock supplies timestamps for spans and events. *sim.Engine satisfies it
// directly (virtual time), as does sim.Domains for a deployment's groups.
type Clock interface {
	Now() sim.Time
}

// Hub bundles the four telemetry components behind one handle.
type Hub struct {
	Registry *Registry
	Tracer   *Tracer
	Events   *EventLog
	SLA      *SLAAccount
}

// Default capacities for the bounded components. Large enough that a full
// replay window is observable, small enough to bound memory regardless of
// run length.
const (
	DefaultSpanCapacity  = 8192
	DefaultEventCapacity = 4096
)

// NewHub builds a hub over the clock. p is the performance SLA guarantee
// the per-tenant attainment is judged against.
func NewHub(clock Clock, p float64) *Hub {
	return &Hub{
		Registry: NewRegistry(),
		Tracer:   NewTracer(clock, DefaultSpanCapacity),
		Events:   NewEventLog(clock, DefaultEventCapacity),
		SLA:      NewSLAAccount(p),
	}
}
