// Package recovery closes the paper's §4.4 high-availability loop: "Thrifty
// will replace a failed node by starting a new node upon receiving node
// failure notification. ... The failed node is carted away and re-imaged."
//
// A Controller watches one tenant-group. Detection is a heartbeat probe on
// the group's own engine (deterministic sim-clock time, no wall clock): each
// beat compares every instance's FailedNodes count against the recoveries
// already in progress, so a crash is noticed at the next beat — including a
// repeat crash of an instance that is already mid-recovery. Callers that
// learn of a failure synchronously (the replay injector) can call Notify to
// skip the detection latency.
//
// Per detected failure the controller drives the full §4.4 lifecycle:
//
//  1. swap at the pool — the failed node goes to Repairing (carted away,
//     re-imaged after cluster.ReimageTime) and a replacement is acquired;
//  2. replacement startup + bulk reload of the instance's per-node data
//     share, priced by the Table 5.1 model (single-node startup plus a
//     single loader stream over TenantDataGB/Nodes);
//  3. RepairNode — the instance returns to full SpeedFactor.
//
// Throughout, the instance keeps serving degraded (mppdb's processor sharing
// slows by 1/SpeedFactor). When the pool is exhausted the controller retries
// with exponential backoff up to MaxAttempts, emits recovery_failed telemetry
// per miss, then rests for CoolDown and starts a fresh attempt cycle — it
// never gives up permanently and never blocks the clock domain.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config controls a group's recovery controller.
type Config struct {
	// HeartbeatInterval is the failure-detection probe period.
	HeartbeatInterval time.Duration
	// MaxAttempts bounds one cycle of replacement-acquisition attempts.
	MaxAttempts int
	// InitialBackoff is the wait after the first failed attempt; it doubles
	// per miss up to MaxBackoff.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// CoolDown is the rest between exhausted attempt cycles.
	CoolDown time.Duration
	// ParallelReload re-replicates a replacement node's shard from the
	// instance's surviving peers in parallel streams instead of one loader
	// stream (the same Table 5.1 parallel-load modeling provisioning and
	// re-spread use). Off by default: the classic single-stream reload.
	ParallelReload bool
}

// DefaultConfig returns the controller's standard settings: 30 s heartbeats,
// 5 attempts backing off 1→16 min, 1 h between cycles.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 30 * time.Second,
		MaxAttempts:       5,
		InitialBackoff:    time.Minute,
		MaxBackoff:        16 * time.Minute,
		CoolDown:          time.Hour,
	}
}

func (c Config) validate() error {
	if c.HeartbeatInterval <= 0 || c.InitialBackoff <= 0 || c.MaxBackoff <= 0 || c.CoolDown <= 0 {
		return fmt.Errorf("recovery: non-positive intervals in %+v", c)
	}
	if c.MaxAttempts < 1 {
		return fmt.Errorf("recovery: MaxAttempts=%d", c.MaxAttempts)
	}
	return nil
}

// Event records one detected failure's recovery lifecycle.
type Event struct {
	// Group and MPPDB locate the degraded instance.
	Group string
	MPPDB string
	// Detected is when the controller noticed the failure.
	Detected sim.Time
	// Replaced is when a replacement node was acquired (zero while the pool
	// is exhausted).
	Replaced sim.Time
	// Completed is when RepairNode restored full speed (zero until then).
	Completed sim.Time
	// Attempts counts replacement-acquisition tries, across cycles.
	Attempts int
	// ExhaustedCycles counts attempt cycles that ran out of MaxAttempts.
	ExhaustedCycles int
	// FailedNode is the pool ID swapped out for re-imaging, -1 when the
	// failure was injected at the instance only (no pool-side record).
	FailedNode int
	// ReplacementNode is the acquired pool ID, -1 before replacement.
	ReplacementNode int
	// Err is the most recent acquisition error, cleared on success.
	Err string
	// Backoff is the currently armed retry backoff (zero once replaced or
	// while cooling down / queued in triage).
	Backoff time.Duration
	// NextAttemptAt is when the next acquisition attempt or triage poll
	// fires (zero once replaced).
	NextAttemptAt sim.Time
	// CoolingUntil is the end of the current post-exhaustion rest (zero
	// outside a cool-down).
	CoolingUntil sim.Time
	// Triaged marks a lifecycle that waited in the cluster scarcity triage
	// queue instead of the backoff cycle.
	Triaged bool
}

// Recovered reports whether the lifecycle ran to completion.
func (e Event) Recovered() bool { return e.Completed > 0 }

// Controller drives autonomous failure recovery for one tenant-group. It is
// confined to the group's engine: all methods except Events/InProgress must
// be called while holding the group's clock domain (or as the engine's
// single driver).
type Controller struct {
	eng   *sim.Engine
	pool  *cluster.Pool
	group string
	insts []*mppdb.Instance
	cfg   Config

	pending map[string]int // instance ID → recoveries in flight
	// awaitingSwap counts pending lifecycles that have not yet consumed a
	// pool-side Failed record (pre-swap: backing off, queued in triage, or
	// about to fall back to a plain acquire). sweep needs the split: a
	// lifecycle that is mid-reload has already Replaced its pool record, so
	// a fresh pool failure appearing while it reloads — a domain outage
	// killing the very replacement it installed — is new work even though
	// pending already "covers" the instance-side count.
	awaitingSwap map[string]int
	events       []*Event
	started      bool

	// Scarcity triage (nil = classic backoff free-for-all). prio supplies
	// the group's live SLA-at-risk inputs; claimSeq makes claim keys unique
	// per lifecycle.
	triage   *Triage
	prio     func() (deficit float64, tenants int)
	claimSeq int

	// quarantine, when set, gates an instance in/out of routing: the domain
	// injector flags instances whose every node died, and finish lifts the
	// flag once the last failed node is repaired.
	quarantine func(instID string, on bool)

	// respread, when armed, re-spreads the group across failure domains
	// after a collapse (see respread.go).
	respread         bool
	respreadParallel bool
	respreadInFlight bool
	respreads        int

	tel        *telemetry.Hub
	mStarted   *telemetry.Counter
	mCompleted *telemetry.Counter
	mRetried   *telemetry.Counter
	mExhausted *telemetry.Counter
	mActive    *telemetry.Gauge
	mDuration  *telemetry.Histogram
}

// New creates a controller for the group's instances over the shared pool.
func New(eng *sim.Engine, pool *cluster.Pool, group string,
	insts []*mppdb.Instance, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if eng == nil || pool == nil || len(insts) == 0 {
		return nil, fmt.Errorf("recovery: group %q needs an engine, a pool, and instances", group)
	}
	return &Controller{
		eng:          eng,
		pool:         pool,
		group:        group,
		insts:        insts,
		cfg:          cfg,
		pending:      make(map[string]int),
		awaitingSwap: make(map[string]int),
	}, nil
}

// SetTelemetry attaches a telemetry hub. A nil hub disables instrumentation.
func (c *Controller) SetTelemetry(h *telemetry.Hub) {
	c.tel = h
	if h == nil {
		return
	}
	c.mStarted = h.Registry.Counter("thrifty_recovery_started_total", "group", c.group)
	c.mCompleted = h.Registry.Counter("thrifty_recovery_completed_total", "group", c.group)
	c.mRetried = h.Registry.Counter("thrifty_recovery_retry_total", "group", c.group)
	c.mExhausted = h.Registry.Counter("thrifty_recovery_exhausted_total", "group", c.group)
	c.mActive = h.Registry.Gauge("thrifty_recovery_in_progress", "group", c.group)
	c.mDuration = h.Registry.Histogram("thrifty_recovery_duration_seconds",
		[]float64{300, 600, 1200, 1800, 2700, 3600, 7200, 14400, 28800}, "group", c.group)
}

// SetTriage arms the cluster-wide scarcity triage: when replacement
// acquisition hits pool exhaustion the lifecycle enqueues a claim ranked by
// prio (sliding RT-TTP deficit, tenant count) instead of burning backoff
// retry cycles. Call before Start; a nil triage keeps the classic backoff.
func (c *Controller) SetTriage(t *Triage, prio func() (float64, int)) {
	c.triage = t
	if prio == nil {
		prio = func() (float64, int) { return 0, 0 }
	}
	c.prio = prio
}

// SetQuarantine attaches a routing gate (router.SetQuarantine): the domain
// injector flags instances whose nodes all died so new queries route to
// surviving replicas, and finish clears the flag once the instance's last
// failed node is repaired.
func (c *Controller) SetQuarantine(fn func(instID string, on bool)) { c.quarantine = fn }

// Start schedules the periodic heartbeat probes. Idempotent. A controller's
// events are shared (sim.Engine.AfterShared): they use the pool.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	var beat func(now sim.Time)
	beat = func(now sim.Time) {
		c.sweep()
		c.maybeRespread()
		c.eng.AfterShared(c.cfg.HeartbeatInterval, beat)
	}
	c.eng.AfterShared(c.cfg.HeartbeatInterval, beat)
}

// Started reports whether the heartbeat loop is armed.
func (c *Controller) Started() bool { return c.started }

// Notify prompts an immediate detection sweep — the push half of detection,
// for callers that already know a node just failed. The caller must hold the
// group's domain.
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
//     (awaitingSwap) — a mid-reload lifecycle has already Replaced its record,
//     so it cannot absorb a fresh pool failure. Without this split, an outage
//     that kills a replacement node mid-reload stays masked until the reload
//     drains, serializing what should be concurrent recoveries and leaking
//     Failed nodes past any drain horizon.
//
// On crash and gray paths the two expressions are provably equal (every
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
		FailedNode:      -1,
		ReplacementNode: -1,
	}
	c.events = append(c.events, ev)
	if c.tel != nil {
		c.mStarted.Inc()
		c.mActive.Add(1)
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRecoveryStarted,
			Group:  c.group,
			MPPDB:  inst.ID(),
			Value:  float64(inst.FailedNodes()),
			Detail: "node failure detected; acquiring replacement",
		})
	}
	c.attempt(ev, inst, 1, c.cfg.InitialBackoff)
}

// attempt tries to acquire a replacement node; on pool exhaustion it hands
// the lifecycle to the scarcity triage when one is armed, otherwise backs
// off exponentially and after MaxAttempts misses rests for CoolDown before
// a fresh cycle.
func (c *Controller) attempt(ev *Event, inst *mppdb.Instance, try int, backoff time.Duration) {
	ev.Attempts++
	failedID, repl, err := c.swap(inst.ID())
	if err != nil {
		ev.Err = err.Error()
		if c.triage != nil {
			c.enqueueTriage(ev, inst)
			return
		}
		if try >= c.cfg.MaxAttempts {
			ev.ExhaustedCycles++
			ev.Backoff = 0
			ev.CoolingUntil = c.eng.Now().Add(c.cfg.CoolDown)
			ev.NextAttemptAt = ev.CoolingUntil
			if c.tel != nil {
				c.mExhausted.Inc()
				c.tel.Events.Publish(telemetry.Event{
					Type:   telemetry.EventRecoveryFailed,
					Group:  c.group,
					MPPDB:  inst.ID(),
					Value:  float64(try),
					Detail: fmt.Sprintf("cycle exhausted after %d attempts (%v); cooling down %v", try, err, c.cfg.CoolDown),
				})
			}
			c.eng.AfterShared(c.cfg.CoolDown, func(sim.Time) {
				ev.CoolingUntil = 0
				c.attempt(ev, inst, 1, c.cfg.InitialBackoff)
			})
			return
		}
		if c.tel != nil {
			c.mRetried.Inc()
			c.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventRecoveryFailed,
				Group:  c.group,
				MPPDB:  inst.ID(),
				Value:  float64(try),
				Detail: fmt.Sprintf("attempt %d/%d: %v; backing off %v", try, c.cfg.MaxAttempts, err, backoff),
			})
		}
		next := 2 * backoff
		if next > c.cfg.MaxBackoff {
			next = c.cfg.MaxBackoff
		}
		ev.Backoff = backoff
		ev.NextAttemptAt = c.eng.Now().Add(backoff)
		c.eng.AfterShared(backoff, func(sim.Time) {
			c.attempt(ev, inst, try+1, next)
		})
		return
	}
	c.replaced(ev, inst, failedID, repl)
}

// enqueueTriage parks the lifecycle in the cluster scarcity queue and polls
// on this group's clock until the allocator ranks it inside the free-node
// budget. No retry cycles are burned while queued: the instance serves
// degraded behind the brownout/admission machinery.
func (c *Controller) enqueueTriage(ev *Event, inst *mppdb.Instance) {
	c.claimSeq++
	key := fmt.Sprintf("%s#%d", inst.ID(), c.claimSeq)
	ev.Triaged = true
	ev.Backoff = 0
	deficit, tenants := c.prio()
	c.triage.Enqueue(key, c.group, inst.ID(), deficit, tenants)
	if c.tel != nil {
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventTriageEnqueued,
			Group:  c.group,
			MPPDB:  inst.ID(),
			Value:  deficit * float64(tenants),
			Detail: fmt.Sprintf("pool exhausted; queued for triage (deficit %.4g × %d tenants)", deficit, tenants),
		})
	}
	var poll func(sim.Time)
	poll = func(sim.Time) {
		deficit, tenants := c.prio()
		failedID, repl, ok := c.triage.TryGrant(key, deficit, tenants)
		if !ok {
			ev.NextAttemptAt = c.eng.Now().Add(triageInterval)
			c.eng.AfterShared(triageInterval, poll)
			return
		}
		if failedID >= 0 {
			id := failedID
			c.eng.AfterShared(cluster.ReimageTime(), func(sim.Time) { _ = c.pool.Reimage(id) })
		}
		if c.tel != nil {
			c.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventTriageGranted,
				Group:  c.group,
				MPPDB:  inst.ID(),
				Value:  float64(repl.ID),
				Detail: fmt.Sprintf("triage granted node %d after %v queued", repl.ID, c.eng.Now()-ev.Detected),
			})
		}
		c.replaced(ev, inst, failedID, repl)
	}
	ev.NextAttemptAt = c.eng.Now().Add(triageInterval)
	c.eng.AfterShared(triageInterval, poll)
}

// replaced is the success half of a lifecycle: a replacement node is in
// hand, Table 5.1 startup + reload run, then finish restores full speed.
func (c *Controller) replaced(ev *Event, inst *mppdb.Instance, failedID int, repl *cluster.Node) {
	c.awaitingSwap[inst.ID()]--
	ev.Err = ""
	ev.Replaced = c.eng.Now()
	ev.FailedNode = failedID
	ev.ReplacementNode = repl.ID
	ev.Backoff = 0
	ev.NextAttemptAt = 0
	ev.CoolingUntil = 0
	// Table 5.1: start + initialize the one replacement node, then reload
	// this node's share of the instance's tenant data — over a single loader
	// stream by default (per-node shard; the surviving nodes keep serving
	// theirs), or re-replicated from the surviving peers in parallel streams
	// when ParallelReload is armed.
	share := inst.TenantDataGB() / float64(inst.Nodes())
	delay := cluster.StartupTime(1) + cluster.LoadTime(share, 1, false)
	if c.cfg.ParallelReload {
		delay = cluster.StartupTime(1) + cluster.LoadTime(share, inst.Nodes(), true)
	}
	if c.tel != nil {
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRecoveryReplaced,
			Group:  c.group,
			MPPDB:  inst.ID(),
			Value:  float64(repl.ID),
			Detail: fmt.Sprintf("replacement node %d starting; %.0f GB reload, ready in %v", repl.ID, share, delay),
		})
	}
	c.eng.AfterShared(delay, func(sim.Time) { c.finish(ev, inst) })
}

// swap exchanges a failed pool node of the instance for a fresh one. When the
// pool has no Failed record for the instance (instance-only injection), it
// falls back to a plain acquire. The swapped-out node re-images in the
// background and re-joins the free list after cluster.ReimageTime.
func (c *Controller) swap(owner string) (int, *cluster.Node, error) {
	if ids := c.pool.FailedNodesOf(owner); len(ids) > 0 {
		id := ids[0]
		repl, err := c.pool.Replace(id)
		if err != nil {
			return -1, nil, err
		}
		c.eng.AfterShared(cluster.ReimageTime(), func(sim.Time) { _ = c.pool.Reimage(id) })
		return id, repl, nil
	}
	nodes, err := c.pool.Acquire(owner, 1)
	if err != nil {
		return -1, nil, err
	}
	return -1, nodes[0], nil
}

// finish completes the lifecycle: the reloaded replacement joins and the
// instance regains one node of speed.
func (c *Controller) finish(ev *Event, inst *mppdb.Instance) {
	defer func() {
		c.pending[inst.ID()]--
		if c.tel != nil {
			c.mActive.Add(-1)
		}
	}()
	if inst.FailedNodes() > 0 {
		if err := inst.RepairNode(); err != nil {
			// Unreachable in normal operation (each lifecycle repairs a
			// failure it detected); record rather than panic if an operator
			// repaired by hand meanwhile.
			ev.Err = err.Error()
			if c.tel != nil {
				c.tel.Events.Publish(telemetry.Event{
					Type:   telemetry.EventRecoveryFailed,
					Group:  c.group,
					MPPDB:  inst.ID(),
					Detail: fmt.Sprintf("repair: %v", err),
				})
			}
			return
		}
	}
	// else: a capacity-only lifecycle — the instance model had already
	// absorbed its nodes-1 degradation cap when a whole domain died, so
	// this replacement restores pool capacity without a node to repair.
	ev.Completed = c.eng.Now()
	if c.quarantine != nil && inst.FailedNodes() == 0 {
		// The instance is whole again: lift any routing quarantine a domain
		// outage imposed while all its nodes were down.
		c.quarantine(inst.ID(), false)
	}
	if c.tel != nil {
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
}
