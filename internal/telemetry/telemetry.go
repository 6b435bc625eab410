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
//
// A deployment's groups write through views of its hub (Hub.View) on their
// own clocks; while sim.Domains.Drive runs them concurrently, the views
// buffer, and merge in (time, group, write order) before IDs are assigned.
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

// Guard ties the hub to its views' gate: inside a window views buffer and
// the hub's own writers panic; after it the buffers merge.
func (h *Hub) Guard(g *sim.Gate) {
	h.Tracer.gate, h.Events.gate = g, g
	g.OnFlush(h.Tracer.take)
	g.OnFlush(h.Events.take)
}

// View returns a group's front for writes on its own clock; readers use the
// hub. Views merge in the order they were made, the groups' domain order.
func (h *Hub) View(clock Clock) *Hub {
	t := &Tracer{clock: clock, root: h.Tracer}
	l := &EventLog{clock: clock, root: h.Events}
	h.Tracer.views = append(h.Tracer.views, t)
	h.Events.views = append(h.Events.views, l)
	return &Hub{Registry: h.Registry, Tracer: t, Events: l, SLA: h.SLA}
}

// merge applies every op of bufs (bufs[v], view v's, ascend in at) in the
// order one goroutine stepping the views' groups would have: by at, then v.
// No op is at sim.MaxTime, which marks a spent view.
func merge[T any](bufs [][]T, at func(*T) sim.Time, apply func(v int, op *T)) {
	pos, head, left := make([]int, len(bufs)), make([]sim.Time, len(bufs)), 0
	for v, b := range bufs {
		if head[v], left = sim.MaxTime, left+len(b); len(b) > 0 {
			head[v] = at(&b[0])
		}
	}
	for ; left > 0; left-- {
		next, first := 0, head[0]
		for v, t := range head {
			if t < first {
				next, first = v, t
			}
		}
		b, i := bufs[next], pos[next]
		apply(next, &b[i])
		if pos[next], head[next] = i+1, sim.MaxTime; i+1 < len(b) {
			head[next] = at(&b[i+1])
		}
	}
}
