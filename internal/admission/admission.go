package admission

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// Brownout levels. The controller progressively sheds the least protected
// traffic first: over-contract tenants lose their burst allowance at
// LevelThrottleHot, best-effort traffic is dropped at LevelShedBestEffort.
// Contract-abiding SLA traffic is never shed at any level.
const (
	// LevelNormal: every tenant gets its full contract.
	LevelNormal = 0
	// LevelThrottleHot: the group nears its guarantee (RT-TTP under the
	// enter threshold, or instances run degraded/mid-recovery); tenants
	// that drained past the hot watermark — sustained submission above
	// their contracted rate — are rejected until their bucket recovers.
	LevelThrottleHot = 1
	// LevelShedBestEffort: the guarantee is violated; best-effort traffic
	// is shed too and the group goes shedding-only for stats readers.
	LevelShedBestEffort = 2
)

// Shed reasons carried by ShedError and the per-reason shed counters.
const (
	// ShedQueueFull: the bounded admission queue is at capacity.
	ShedQueueFull = "queue_full"
	// ShedDeadline: the query could not start soon enough to meet its SLA
	// deadline, so running it would be wasted work.
	ShedDeadline = "deadline"
	// ShedBestEffort: brownout dropped best-effort traffic.
	ShedBestEffort = "best_effort"
)

// ContractExceededError is the typed 429: the tenant ran past its
// contracted arrival process. RetryAfter is the virtual time until the
// tenant's bucket readmits it.
type ContractExceededError struct {
	Group      string
	Tenant     string
	RetryAfter sim.Time
	// Brownout reports whether the rejection was tightened by an active
	// brownout (burst allowance withdrawn), not the contract alone.
	Brownout bool
}

func (e *ContractExceededError) Error() string {
	why := "contract exceeded"
	if e.Brownout {
		why = "contract exceeded (brownout)"
	}
	return fmt.Sprintf("admission: tenant %s on group %s: %s; retry after %v",
		e.Tenant, e.Group, why, e.RetryAfter)
}

// ShedError is the typed 503: the query was shed without being run —
// queue full, unmeetable deadline, or best-effort traffic during brownout.
type ShedError struct {
	Group      string
	Tenant     string
	Reason     string
	RetryAfter sim.Time
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: tenant %s on group %s: query shed (%s); retry after %v",
		e.Tenant, e.Group, e.Reason, e.RetryAfter)
}

// Config parameterizes a group's admission controller.
type Config struct {
	// Contracts maps tenant ID to its contracted arrival process; a tenant
	// absent from the map is unlimited (counted, never throttled). Derive
	// from the advisor's workload model with ContractsFromLogs.
	Contracts map[string]Contract
	// TickInterval is the brownout controller's evaluation cadence on the
	// group's virtual clock (default 30 s).
	TickInterval time.Duration
}

const (
	// maxQueue bounds how many submits may wait in the group's admission
	// queue for a retry slot.
	maxQueue = 32
	// strikeLimit is how many consecutive rejections a tenant may accrue
	// before the policer turns punitive regardless of brownout level: each
	// further attempt restarts its refill from zero, locking an open-loop
	// flooder out until it actually backs off. A client that honors
	// Retry-After never accumulates strikes.
	strikeLimit = 8
	// deadlineFactor sheds a queued query whose projected start delay exceeds
	// (deadlineFactor-1) x its SLA target: a query that would wait more than
	// a quarter of its target before starting is shed at once instead of
	// wasting group capacity.
	deadlineFactor = 1.25
	// hotFraction is the fraction of its burst a tenant must retain to be
	// admitted during brownout: one that drained below it has been submitting
	// above its sustained rate and is rejected first.
	hotFraction = 0.5
)

// DefaultConfig returns a 30 s brownout cadence and no contracts.
func DefaultConfig() Config {
	return Config{TickInterval: 30 * time.Second}
}

func (c *Config) normalize() {
	if c.TickInterval <= 0 {
		c.TickInterval = 30 * time.Second
	}
}

// tenantState is one member's bucket plus lock-free mirrors for readers.
// The bucket itself is only touched under the group's clock domain; the
// atomics let /v1/admission and /v1/slo read without taking it.
type tenantState struct {
	tenant    string
	bucket    *bucket // nil for unlimited contracts
	contract  Contract
	strikes   int           // consecutive rejections; domain-serialized
	tokens    atomic.Uint64 // Float64bits mirror of bucket.tokens
	admitted  atomic.Int64
	throttled atomic.Int64
	shed      atomic.Int64
}

func (ts *tenantState) mirror() {
	if ts.bucket != nil {
		ts.tokens.Store(math.Float64bits(ts.bucket.tokens))
	}
}

// TenantStat is one tenant's admission accounting, lock-free readable.
type TenantStat struct {
	Tenant    string  `json:"tenant"`
	Rate      float64 `json:"rate_qps"`
	Burst     float64 `json:"burst"`
	Tokens    float64 `json:"tokens"`
	Admitted  int64   `json:"admitted"`
	Throttled int64   `json:"throttled"`
	Shed      int64   `json:"shed"`
}

// Snapshot is a group's full admission state for inspection endpoints.
type Snapshot struct {
	Group        string       `json:"group"`
	Level        int          `json:"level"`
	QueueDepth   int          `json:"queue_depth"`
	SheddingOnly bool         `json:"shedding_only"`
	Tenants      []TenantStat `json:"tenants"`
}

// Controller is one tenant-group's admission controller. AdmitRef,
// EnterQueue, and LeaveQueue must run under the group's clock domain (they
// use the engine clock and mutate buckets); the inspection methods are
// lock-free and safe from any goroutine.
type Controller struct {
	eng   *sim.Engine
	group string
	p     float64
	enter float64
	cfg   Config
	mon   *monitor.GroupMonitor
	rec   *recovery.Controller
	insts []*mppdb.Instance
	// Member states indexed by the group interner's dense refs (nil for a
	// ref that is not a member), and the same states sorted by tenant ID for
	// the inspection endpoints. Read-only after New.
	in      *tenant.Interner
	byRef   []*tenantState
	order   []*tenantState
	level   atomic.Int32
	waiting atomic.Int32
	// ticker is the brownout evaluation's one event, re-keyed every
	// TickInterval for the controller's life.
	ticker sim.Event

	onLevelChange func(int)
	onTick        func()

	tel        *telemetry.Hub
	mAdmitted  *telemetry.Counter
	mThrottled *telemetry.Counter
	mShed      map[string]*telemetry.Counter // by reason
	gLevel     *telemetry.Gauge
	gQueue     *telemetry.Gauge
}

// New builds the controller for one group, armed: its brownout evaluation is
// queued on eng every cfg.TickInterval, so the caller must hold the group's
// clock domain. tel is the group's telemetry view; in is the group interner,
// which resolves members to the refs AdmitRef takes. members are the group's
// tenant IDs; mon/rec/insts feed the brownout controller (rec may be nil).
// onLevelChange fires (under the domain) when the brownout level changes and
// onTick after every evaluation; either may be nil.
func New(eng *sim.Engine, tel *telemetry.Hub, in *tenant.Interner, group string, p float64,
	members []string, insts []*mppdb.Instance, mon *monitor.GroupMonitor, rec *recovery.Controller,
	cfg Config, onLevelChange func(level int), onTick func()) (*Controller, error) {
	switch {
	case eng == nil:
		return nil, fmt.Errorf("admission: nil engine")
	case tel == nil:
		return nil, fmt.Errorf("admission: nil telemetry hub for group %s", group)
	case in == nil:
		return nil, fmt.Errorf("admission: nil interner for group %s", group)
	case mon == nil:
		return nil, fmt.Errorf("admission: nil monitor for group %s", group)
	case p <= 0 || p >= 1:
		return nil, fmt.Errorf("admission: guarantee P=%v out of (0,1)", p)
	}
	cfg.normalize()
	c := &Controller{
		eng:   eng,
		group: group,
		p:     p,
		// Halfway into the headroom that remains above the guarantee.
		enter:         p + (1-p)/2,
		cfg:           cfg,
		mon:           mon,
		rec:           rec,
		insts:         insts,
		in:            in,
		onLevelChange: onLevelChange,
		onTick:        onTick,
		tel:           tel,
		mAdmitted:     tel.Registry.Counter("thrifty_admission_admitted_total", "group", group),
		mThrottled:    tel.Registry.Counter("thrifty_admission_throttled_total", "group", group),
		mShed: map[string]*telemetry.Counter{
			ShedQueueFull:  tel.Registry.Counter("thrifty_admission_shed_total", "group", group, "reason", ShedQueueFull),
			ShedDeadline:   tel.Registry.Counter("thrifty_admission_shed_total", "group", group, "reason", ShedDeadline),
			ShedBestEffort: tel.Registry.Counter("thrifty_admission_shed_total", "group", group, "reason", ShedBestEffort),
		},
		gLevel: tel.Registry.Gauge("thrifty_admission_brownout_level", "group", group),
		gQueue: tel.Registry.Gauge("thrifty_admission_queue_depth", "group", group),
	}
	for _, id := range members {
		ref := in.Intern(id)
		for int(ref) >= len(c.byRef) {
			c.byRef = append(c.byRef, nil)
		}
		if c.byRef[ref] != nil {
			continue
		}
		ct := cfg.Contracts[id]
		ts := &tenantState{tenant: id, contract: ct}
		if !ct.Unlimited() {
			ts.bucket = newBucket(ct)
			ts.mirror()
		}
		c.byRef[ref] = ts
		c.order = append(c.order, ts)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i].tenant < c.order[j].tenant })
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		c.tick()
		c.eng.Reschedule(&c.ticker, now.Add(c.cfg.TickInterval), tick)
	}
	c.eng.Reschedule(&c.ticker, c.eng.Now().Add(c.cfg.TickInterval), tick)
	return c, nil
}

// Group returns the controller's tenant-group ID.
func (c *Controller) Group() string { return c.group }

// tick re-evaluates the brownout level from the live RT-TTP estimate, the
// group's instantaneous pressure (every MPPDB claimed by an active tenant —
// the next uncovered arrival shares), and its recovery state.
func (c *Controller) tick() {
	rt := c.mon.RTTTP()
	degraded := 0
	for _, inst := range c.insts {
		if inst.FailedNodes() > 0 || inst.State() != mppdb.Ready {
			degraded++
		}
	}
	pressure := len(c.insts) > 0 && c.mon.ActiveTenants() >= len(c.insts)
	level := LevelNormal
	switch {
	case rt < c.p:
		level = LevelShedBestEffort
	case rt < c.enter || pressure || degraded > 0 || (c.rec != nil && c.rec.InProgress() > 0):
		level = LevelThrottleHot
	}
	prev := int(c.level.Swap(int32(level)))
	if level != prev {
		c.gLevel.Set(float64(level))
		typ := telemetry.EventBrownoutEntered
		if level == LevelNormal {
			typ = telemetry.EventBrownoutCleared
		}
		c.tel.Events.Publish(telemetry.Event{
			Type:   typ,
			Group:  c.group,
			Value:  float64(level),
			Detail: fmt.Sprintf("rt_ttp=%.6f degraded=%d", rt, degraded),
		})
		if c.onLevelChange != nil {
			c.onLevelChange(level)
		}
	}
	if c.onTick != nil {
		c.onTick()
	}
}

// Level returns the current brownout level. Lock-free.
func (c *Controller) Level() int { return int(c.level.Load()) }

// QueueDepth returns how many submits wait in the admission queue.
// Lock-free.
func (c *Controller) QueueDepth() int { return int(c.waiting.Load()) }

// state resolves a group ref to its member state (nil for a non-member)
// and the tenant's ID.
func (c *Controller) state(ref tenant.Ref) (*tenantState, string) {
	if ref >= 0 && int(ref) < len(c.byRef) && c.byRef[ref] != nil {
		return c.byRef[ref], c.byRef[ref].tenant
	}
	return nil, c.in.ID(ref)
}

// AdmitRef decides whether one query from the tenant behind the group ref
// may enter the group now. Must run under the group's clock domain. A nil
// return admits; otherwise the error is a *ContractExceededError (429) or
// *ShedError (503).
func (c *Controller) AdmitRef(ref tenant.Ref, sla sim.Time, bestEffort bool) error {
	ts, tenant := c.state(ref)
	level := int(c.level.Load())
	if bestEffort && level >= LevelShedBestEffort {
		c.shed(ts, tenant, ShedBestEffort, "brownout sheds best-effort traffic")
		return &ShedError{
			Group: c.group, Tenant: tenant, Reason: ShedBestEffort,
			RetryAfter: sim.Duration(c.cfg.TickInterval),
		}
	}
	if ts == nil || ts.bucket == nil {
		// Unknown or unlimited tenant: admit (the router enforces
		// membership; unlimited contracts are counted only).
		if ts != nil {
			ts.admitted.Add(1)
		}
		c.mAdmitted.Inc()
		return nil
	}
	// During brownout a tenant must hold hotFraction of its burst in
	// reserve: only tenants that sustained submission above their
	// contracted rate have drained below that watermark, so they are
	// rejected first while contract-abiding tenants pass untouched.
	need := 1.0
	if level >= LevelThrottleHot {
		if hot := hotFraction * ts.contract.Burst; hot+1 > need {
			need = hot + 1
		}
	}
	now := c.eng.Now()
	ok, retryAfter := ts.bucket.take(now, need)
	if ok {
		ts.strikes = 0
	} else {
		ts.strikes++
		if level >= LevelThrottleHot || ts.strikes >= strikeLimit {
			// Punitive policing: a tenant that keeps submitting while
			// rejected — brownout in effect, or strikeLimit consecutive
			// denials with Retry-After ignored — restarts its refill from
			// zero, so only actually backing off readmits it.
			ts.bucket.punish()
			retryAfter = ts.bucket.eta(need)
		}
	}
	ts.mirror()
	if !ok {
		ts.throttled.Add(1)
		c.mThrottled.Inc()
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventContractExceeded,
			Group:  c.group,
			Tenant: tenant,
			Value:  retryAfter.Seconds(),
			Detail: fmt.Sprintf("level=%d %s", level, ts.contract),
		})
		return &ContractExceededError{
			Group: c.group, Tenant: tenant,
			RetryAfter: retryAfter, Brownout: level >= LevelThrottleHot,
		}
	}
	ts.admitted.Add(1)
	c.mAdmitted.Inc()
	return nil
}

// EnterQueue claims a slot in the bounded admission queue for a submit of
// the tenant behind the group ref whose first attempt failed transiently and
// will retry after delay.
// Must run under the group's clock domain. It sheds immediately — typed
// *ShedError — when the queue is full or the projected start delay alone
// would blow the query's SLA deadline (no wasted work). A nil return means
// the slot is held until LeaveQueue.
func (c *Controller) EnterQueue(ref tenant.Ref, sla, delay sim.Time) error {
	ts, tenant := c.state(ref)
	if sla > 0 {
		slack := sim.Time(float64(sla) * (deadlineFactor - 1))
		if delay > slack {
			c.shed(ts, tenant, ShedDeadline,
				fmt.Sprintf("start delay %v exceeds deadline slack %v", delay, slack))
			return &ShedError{
				Group: c.group, Tenant: tenant, Reason: ShedDeadline,
				RetryAfter: delay,
			}
		}
	}
	if int(c.waiting.Load()) >= maxQueue {
		c.shed(ts, tenant, ShedQueueFull,
			fmt.Sprintf("admission queue at capacity %d", maxQueue))
		return &ShedError{
			Group: c.group, Tenant: tenant, Reason: ShedQueueFull,
			RetryAfter: delay,
		}
	}
	c.gQueue.Set(float64(c.waiting.Add(1)))
	return nil
}

// LeaveQueue releases a slot claimed by EnterQueue. Must run under the
// group's clock domain.
func (c *Controller) LeaveQueue() {
	c.gQueue.Set(float64(c.waiting.Add(-1)))
}

// shed counts one shed query of the tenant (ts nil for a non-member) and
// publishes it.
func (c *Controller) shed(ts *tenantState, tenant, reason, detail string) {
	if ts != nil {
		ts.shed.Add(1)
	}
	c.mShed[reason].Inc()
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventQueryShed,
		Group:  c.group,
		Tenant: tenant,
		Detail: reason + ": " + detail,
	})
}

// TenantStats returns every member's admission accounting, sorted by
// tenant ID. Lock-free.
func (c *Controller) TenantStats() []TenantStat {
	out := make([]TenantStat, 0, len(c.order))
	for _, ts := range c.order {
		st := TenantStat{
			Tenant:    ts.tenant,
			Rate:      ts.contract.Rate,
			Burst:     ts.contract.Burst,
			Admitted:  ts.admitted.Load(),
			Throttled: ts.throttled.Load(),
			Shed:      ts.shed.Load(),
		}
		if ts.bucket != nil {
			st.Tokens = math.Float64frombits(ts.tokens.Load())
		}
		out = append(out, st)
	}
	return out
}

// Snapshot returns the group's full admission state. Lock-free.
func (c *Controller) Snapshot() Snapshot {
	level := c.Level()
	return Snapshot{
		Group:        c.group,
		Level:        level,
		QueueDepth:   c.QueueDepth(),
		SheddingOnly: level >= LevelShedBestEffort,
		Tenants:      c.TenantStats(),
	}
}
