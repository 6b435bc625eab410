// Package telemetry is Thrifty's self-observation layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-boundary latency
// histograms with Prometheus text encoding), causally-linked trace spans, a
// bounded ring of recent SLA-relevant events (what GET /v1/events serves),
// and per-tenant SLA attainment accounting.
//
// The whole layer is deterministic under the simulator: span and event
// identifiers are monotonic counters (never random), timestamps come from
// the injected Clock (virtual or wall time) or, for a routed query's spans,
// from its group's engine, and every dump/encoding orders its output totally
// — two runs of the same seeded simulation emit byte-identical traces and
// event logs.
//
// A Hub bundles one of each component and is what the instrumented
// subsystems (router, mppdb, monitor, scaling, replay, service) share. All
// components are safe for concurrent use, but for the tracer's reads of its
// groups' query spans. A deployed group's runtime and controllers (recovery,
// admission, scaling) take their group's view at construction; the
// router, the MPPDB instances and the activity monitor, which can be built
// bare, treat a nil Hub as "telemetry disabled".
//
// A deployment's groups publish events through views of its hub (Hub.View)
// on their own clocks, buffered while sim.Domains.Drive runs the groups
// concurrently and merged in (time, group, write order) before they are
// numbered. A query's spans are built at read, with the deployment
// quiescent, from the trace ops its group logged (QuerySource).
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

// Guard ties the hub to its views' gate: inside a window views buffer events
// and the hub's own writers panic; after it the buffers merge.
func (h *Hub) Guard(g *sim.Gate) {
	h.Tracer.gate, h.Events.gate = g, g
	g.OnFlush(h.Events.flush)
}

// View returns a group's front for writes: an event log on the group's own
// clock, the hub's other components. Views merge in the order they were
// made, the groups' domain order, as their routers' QuerySources do.
func (h *Hub) View(clock Clock) *Hub {
	l := &EventLog{clock: clock, root: h.Events}
	h.Events.views = append(h.Events.views, l)
	return &Hub{Registry: h.Registry, Tracer: h.Tracer, Events: l, SLA: h.SLA}
}
