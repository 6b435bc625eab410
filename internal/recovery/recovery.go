// Package recovery closes the paper's §4.4 high-availability loop: "Thrifty
// will replace a failed node by starting a new node upon receiving node
// failure notification. ... The failed node is carted away and re-imaged."
//
// A Controller watches one tenant-group. Detection is a sweep on the group's
// own engine (deterministic sim-clock time, no wall clock) that compares
// every instance's FailedNodes count against the recoveries already in
// progress, so it also catches a repeat crash of an instance that is already
// mid-recovery. Nothing polls: the code that fails a node calls Detect, which
// schedules the sweep at the next instant of a 30-s heartbeat grid — exactly
// when a probe would have noticed the fault. A caller that must react at
// once (a domain outage) calls Notify to sweep immediately.
//
// Per detected failure the controller decides that a node is needed; the
// group's cluster.Lifecycle does the how: its swap sends the failed node to
// Repairing (re-imaged after cluster.ReimageTime), hands out a fresh one and
// prices the replacement's start-up plus the reload of the instance's
// per-node data share (Table 5.1), after which RepairNode returns the
// instance to full SpeedFactor.
//
// Throughout, the instance keeps serving degraded (mppdb's processor sharing
// slows by 1/SpeedFactor). When the pool is exhausted the lifecycle queues a
// claim in the cluster-wide scarcity triage (triage.go) and polls on the
// group's clock until the allocator grants it a node — it never gives up and
// never blocks the clock domain.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// HeartbeatInterval is the detection grid's period: a fault is detected at
// the first instant of its controller's grid at or after it.
const HeartbeatInterval = 30 * time.Second

// Event records one detected failure's recovery lifecycle.
type Event struct {
	// Group and MPPDB locate the degraded instance.
	Group string
	MPPDB string
	// Detected is when the controller noticed the failure.
	Detected sim.Time
	// Replaced is when a replacement node was acquired (zero while queued
	// in the triage).
	Replaced sim.Time
	// Completed is when RepairNode restored full speed (zero until then).
	Completed sim.Time
	// Attempts counts replacement-acquisition tries outside the triage.
	Attempts int
	// FailedNode is the pool ID swapped out for re-imaging, -1 when the
	// failure was injected at the instance only (no pool-side record).
	FailedNode int
	// ReplacementNode is the acquired pool ID, -1 before replacement.
	ReplacementNode int
	// Err is the most recent acquisition error, cleared on success.
	Err string
	// NextAttemptAt is when the next triage poll fires (zero once
	// replaced).
	NextAttemptAt sim.Time
	// Triaged marks a lifecycle that waited in the cluster scarcity triage
	// queue.
	Triaged bool
}

// Recovered reports whether the lifecycle ran to completion.
func (e Event) Recovered() bool { return e.Completed > 0 }

// Controller drives autonomous failure recovery for one tenant-group. It is
// confined to the group's engine: all methods except Events/InProgress must
// be called while holding the group's clock domain (or as the engine's
// single driver).
type Controller struct {
	lc    *cluster.Lifecycle
	eng   *sim.Engine
	pool  *cluster.Pool
	group string
	insts []*mppdb.Instance

	pending map[string]int // instance ID → recoveries in flight
	// awaitingSwap counts pending lifecycles that have not yet consumed a
	// pool-side Failed record (pre-swap: queued in triage, or about to fall
	// back to a plain acquire). sweep needs the split: a lifecycle that is
	// mid-reload has already swapped its pool record, so a fresh pool
	// failure appearing while it reloads — a domain outage killing the very
	// replacement it installed — is new work even though pending already
	// "covers" the instance-side count.
	awaitingSwap map[string]int
	events       []*Event

	// The heartbeat grid is anchor, the arming instant, plus k ×
	// HeartbeatInterval (k ≥ 1). beatAt is the instant of the last beat
	// scheduled, queued while queued is set: each instant gets one beat.
	anchor, beatAt sim.Time
	queued         bool

	// Scarcity triage: prio supplies the group's live SLA-at-risk inputs;
	// claimSeq makes claim keys unique per lifecycle.
	triage   *Triage
	prio     func() (deficit float64, tenants int)
	claimSeq int

	// quarantine gates an instance in/out of routing: the domain injector
	// flags instances whose every node died, and finish lifts the flag once
	// the last failed node is repaired.
	quarantine func(instID string, on bool)

	// Re-spread (see respread.go) runs when the lifecycle spreads.
	respreadInFlight bool
	respreads        int

	tel        *telemetry.Hub
	mStarted   *telemetry.Counter
	mCompleted *telemetry.Counter
	mActive    *telemetry.Gauge
	mDuration  *telemetry.Histogram
}

// New creates a controller for the group's instances, armed: lc is the
// group's node lifecycle, tri the deployment's scarcity triage, tel the
// group's telemetry view, prio the group's SLA-at-risk inputs a triage
// claim is ranked by (sliding RT-TTP deficit, tenant count), and quarantine
// the group router's routing gate (router.SetQuarantine), which finish
// lifts once an instance is whole. Its heartbeat grid starts at the
// engine's now; a group that landed collapsed gets its re-spread check. The
// caller must hold the group's domain.
func New(lc *cluster.Lifecycle, tri *Triage, tel *telemetry.Hub, group string, insts []*mppdb.Instance,
	prio func() (deficit float64, tenants int), quarantine func(instID string, on bool)) (*Controller, error) {
	if lc == nil || tri == nil || tel == nil || len(insts) == 0 || prio == nil || quarantine == nil {
		return nil, fmt.Errorf("recovery: group %q needs a lifecycle, a triage, a telemetry hub, instances, a priority, and a quarantine gate", group)
	}
	c := &Controller{
		lc:           lc,
		eng:          lc.Engine(),
		pool:         lc.Pool(),
		group:        group,
		insts:        insts,
		triage:       tri,
		prio:         prio,
		quarantine:   quarantine,
		pending:      make(map[string]int),
		awaitingSwap: make(map[string]int),
		anchor:       lc.Engine().Now(),
		tel:          tel,
		mStarted:     tel.Registry.Counter("thrifty_recovery_started_total", "group", group),
		mCompleted:   tel.Registry.Counter("thrifty_recovery_completed_total", "group", group),
		mActive:      tel.Registry.Gauge("thrifty_recovery_in_progress", "group", group),
		mDuration: tel.Registry.Histogram("thrifty_recovery_duration_seconds",
			[]float64{300, 600, 1200, 1800, 2700, 3600, 7200, 14400, 28800}, "group", group),
	}
	c.checkSpread()
	return c, nil
}

// Detect schedules a heartbeat — a detection sweep, then the re-spread
// check — at the first grid instant at or after now whose beat has not
// fired, unless one is queued already. The code that fails a node calls it.
// The beat is a shared event (it uses the pool), so under sim.Domains.Drive
// the caller is itself a shared event or the coordinator.
func (c *Controller) Detect() {
	if c.queued {
		return
	}
	iv := sim.Duration(HeartbeatInterval)
	at := c.anchor + max((c.eng.Now()-c.anchor+iv-1)/iv, 1)*iv
	if at == c.beatAt {
		at += iv
	}
	c.beatAt, c.queued = at, true
	c.eng.ScheduleShared(at, c.beat)
}

// beat is one heartbeat; checkSpread re-arms it while the group is collapsed.
func (c *Controller) beat(sim.Time) {
	c.queued = false
	c.sweep()
	c.maybeRespread()
	c.checkSpread()
}

// Notify sweeps at once — for callers that know a node just failed and must
// not wait for the grid. The caller must hold the group's domain.
func (c *Controller) Notify() { c.sweep() }

// InProgress returns the number of recoveries currently in flight.
func (c *Controller) InProgress() int {
	n := 0
	for _, v := range c.pending {
		n += v
	}
	return n
}

// Events returns a copy of all recovery lifecycles so far, detection order.
func (c *Controller) Events() []Event {
	out := make([]Event, len(c.events))
	for i, e := range c.events {
		out[i] = *e
	}
	return out
}

// sweep compares every instance's failure counts against the recoveries
// already in flight and begins one lifecycle per unaccounted failure. Two
// counts are reconciled because a domain outage breaks their usual 1:1 pairing:
//
//   - instance-side: FailedNodes() minus all pending lifecycles (each pending
//     lifecycle will RepairNode one failure when its reload finishes). The
//     instance model caps degradation at nodes-1 (§4.4: the MPPDB stays
//     online), so when a whole domain dies this count undershoots.
//   - pool-side: Failed records minus only the pre-swap pending lifecycles
//     (awaitingSwap) — a mid-reload lifecycle has already swapped its record,
//     so it cannot absorb a fresh pool failure. Without this split, an outage
//     that kills a replacement node mid-reload stays masked until the reload
//     drains, serializing what should be concurrent recoveries and leaking
//     Failed nodes past any drain horizon.
//
// On the crash path the two expressions are provably equal (every
// FailNode pairs 1:1 with a pool FailAny and every swap consumes exactly one
// record), so this is byte-for-byte the old behavior there.
func (c *Controller) sweep() {
	for _, inst := range c.insts {
		id := inst.ID()
		need := inst.FailedNodes() - c.pending[id]
		if m := c.pool.FailedCount(id) - c.awaitingSwap[id]; m > need {
			need = m
		}
		for ; need > 0; need-- {
			c.begin(inst)
		}
	}
}

// begin opens a recovery lifecycle for one failed node of the instance.
func (c *Controller) begin(inst *mppdb.Instance) {
	c.pending[inst.ID()]++
	c.awaitingSwap[inst.ID()]++
	ev := &Event{
		Group:           c.group,
		MPPDB:           inst.ID(),
		Detected:        c.eng.Now(),
		Attempts:        1,
		FailedNode:      -1,
		ReplacementNode: -1,
	}
	c.events = append(c.events, ev)
	c.mStarted.Inc()
	c.mActive.Add(1)
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventRecoveryStarted,
		Group:  c.group,
		MPPDB:  inst.ID(),
		Value:  float64(inst.FailedNodes()),
		Detail: "node failure detected; acquiring replacement",
	})
	failedID, repl, delay, err := c.swap(ev, inst)
	if err != nil {
		ev.Err = err.Error()
		c.enqueueTriage(ev, inst)
		return
	}
	c.replaced(ev, inst, failedID, repl, delay)
}

// swap runs the lifecycle's swap for one failed node of inst: the fresh node
// reloads the instance's per-node data share, one loader stream per node
// when loading is parallel, then finish restores full speed.
func (c *Controller) swap(ev *Event, inst *mppdb.Instance) (failed, repl int, delay time.Duration, err error) {
	share := inst.TenantDataGB() / float64(inst.Nodes())
	return c.lc.Swap(inst.ID(), share, inst.Nodes(), func() { c.finish(ev, inst) })
}

// enqueueTriage parks the lifecycle in the cluster scarcity queue and polls
// on this group's clock until the allocator ranks it inside the free-node
// budget. The instance serves degraded meanwhile, behind the
// brownout/admission machinery.
func (c *Controller) enqueueTriage(ev *Event, inst *mppdb.Instance) {
	c.claimSeq++
	key := fmt.Sprintf("%s#%d", inst.ID(), c.claimSeq)
	ev.Triaged = true
	deficit, tenants := c.prio()
	c.triage.Enqueue(key, c.group, inst.ID(), deficit, tenants)
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventTriageEnqueued,
		Group:  c.group,
		MPPDB:  inst.ID(),
		Value:  deficit * float64(tenants),
		Detail: fmt.Sprintf("pool exhausted; queued for triage (deficit %.4g × %d tenants)", deficit, tenants),
	})
	var poll func(sim.Time)
	poll = func(sim.Time) {
		deficit, tenants := c.prio()
		var failedID, repl int
		var delay time.Duration
		granted := c.triage.TryGrant(key, deficit, tenants, func() (err error) {
			failedID, repl, delay, err = c.swap(ev, inst)
			return err
		})
		if !granted {
			ev.NextAttemptAt = c.eng.Now().Add(triageInterval)
			c.eng.AfterShared(triageInterval, poll)
			return
		}
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventTriageGranted,
			Group:  c.group,
			MPPDB:  inst.ID(),
			Value:  float64(repl),
			Detail: fmt.Sprintf("triage granted node %d after %v queued", repl, c.eng.Now()-ev.Detected),
		})
		c.replaced(ev, inst, failedID, repl, delay)
	}
	ev.NextAttemptAt = c.eng.Now().Add(triageInterval)
	c.eng.AfterShared(triageInterval, poll)
}

// replaced is the success half of a lifecycle: a replacement node is in
// hand and reloading; finish runs when it is done.
func (c *Controller) replaced(ev *Event, inst *mppdb.Instance, failedID, repl int, delay time.Duration) {
	c.awaitingSwap[inst.ID()]--
	ev.Err = ""
	ev.Replaced = c.eng.Now()
	ev.FailedNode = failedID
	ev.ReplacementNode = repl
	ev.NextAttemptAt = 0
	share := inst.TenantDataGB() / float64(inst.Nodes())
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventRecoveryReplaced,
		Group:  c.group,
		MPPDB:  inst.ID(),
		Value:  float64(repl),
		Detail: fmt.Sprintf("replacement node %d starting; %.0f GB reload, ready in %v", repl, share, delay),
	})
}

// finish completes the lifecycle: the reloaded replacement joins and the
// instance regains one node of speed.
func (c *Controller) finish(ev *Event, inst *mppdb.Instance) {
	defer func() {
		c.pending[inst.ID()]--
		c.mActive.Add(-1)
		c.checkSpread()
	}()
	if inst.FailedNodes() > 0 {
		if err := inst.RepairNode(); err != nil {
			// Unreachable in normal operation (each lifecycle repairs a
			// failure it detected); record rather than panic if an operator
			// repaired by hand meanwhile.
			ev.Err = err.Error()
			c.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventRecoveryFailed,
				Group:  c.group,
				MPPDB:  inst.ID(),
				Detail: fmt.Sprintf("repair: %v", err),
			})
			return
		}
	}
	// else: a capacity-only lifecycle — the instance model had already
	// absorbed its nodes-1 degradation cap when a whole domain died, so
	// this replacement restores pool capacity without a node to repair.
	ev.Completed = c.eng.Now()
	if inst.FailedNodes() == 0 {
		// The instance is whole again: lift any routing quarantine a domain
		// outage imposed while all its nodes were down.
		c.quarantine(inst.ID(), false)
	}
	dur := (ev.Completed - ev.Detected).Seconds()
	c.mCompleted.Inc()
	c.mDuration.Observe(dur)
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventRecoveryCompleted,
		Group:  c.group,
		MPPDB:  inst.ID(),
		Value:  dur,
		Detail: fmt.Sprintf("full speed restored after %d attempt(s)", ev.Attempts),
	})
}
