package online

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/tdd"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Config tunes the control loop.
type Config struct {
	// Plan carries the planning parameters (R, P, epoch width, exclusion
	// thresholds) — normally the deployed plan's advisor.Config.
	Plan advisor.Config
	// Horizon is the planning grid's span (activity beyond it is clipped).
	Horizon sim.Time
	// Interval is the virtual-time control period (default 15 min).
	Interval time.Duration
	// Immediate zeroes migration provisioning delays — unit tests only; the
	// drift experiment keeps the Table 5.1 costs.
	Immediate bool
}

const (
	// drainSlack is how long after a cutover a vacated source group keeps
	// serving stragglers before its nodes return to the pool.
	drainSlack = time.Hour
	// driftEpochs is how many unforeseen active epochs a tenant accumulates
	// before the loop reports it drifted.
	driftEpochs = 32
	// maxLocalMoves bounds single-tenant repair moves per group per tick
	// before the loop escalates to a scoped offline re-consolidation.
	maxLocalMoves = 4
)

// DefaultConfig returns the control loop's standard settings over the given
// planning config and horizon.
func DefaultConfig(plan advisor.Config, horizon sim.Time) Config {
	return Config{Plan: plan, Horizon: horizon, Interval: 15 * time.Minute}
}

// Stats counts what the loop has done so far. All fields are cumulative.
type Stats struct {
	Ticks              int      `json:"ticks"`
	LastTickAt         sim.Time `json:"last_tick_at"`
	DeltaEpochs        int64    `json:"delta_epochs"`
	Drifts             int      `json:"drifts"`
	Joins              int      `json:"joins"`
	Leaves             int      `json:"leaves"`
	LocalMoves         int      `json:"local_moves"`
	Fallbacks          int      `json:"fallbacks"`
	MigrationsStarted  int      `json:"migrations_started"`
	MigrationsCutOver  int      `json:"migrations_cut_over"`
	MigrationsAborted  int      `json:"migrations_aborted"`
	MigrationsPromoted int      `json:"migrations_promoted"`
	GroupsRetired      int      `json:"groups_retired"`
	Groups             int      `json:"groups"`
	Tenants            int      `json:"tenants"`
	Infeasible         int      `json:"infeasible"`
}

// Migration is one live placement change in flight or completed.
type Migration struct {
	ID      int      `json:"id"`
	Kind    string   `json:"kind"` // "join", "move", "split"
	Tenants []string `json:"tenants"`
	From    string   `json:"from,omitempty"`
	To      string   `json:"to"`
	Started sim.Time `json:"started"`
	ReadyAt sim.Time `json:"ready_at"`
	CutOver bool     `json:"cut_over"`
	// Failed marks a migration whose destination died during the background
	// reload; Failure names the cause ("destination_died") and the tenants
	// were re-placed elsewhere. Resolution records how a non-standard
	// completion went: "re_placed" after an abort, "promoted_early" when the
	// source died mid-drain and the destination opened at degraded speed.
	Failed     bool   `json:"failed,omitempty"`
	Failure    string `json:"failure,omitempty"`
	Resolution string `json:"resolution,omitempty"`
}

// flight is the engine-side runtime context of one in-flight migration: the
// crash watchers need the destination group pointer and the source mapping
// after the closures that started the migration are gone. done latches when
// the migration reaches any terminal state so the originally scheduled
// cutover callback can no-op after an abort or an early promotion.
type flight struct {
	mid     int
	kind    string
	ids     []string
	from    map[string]string // tenant → source gid ("" for a join)
	to      string
	grt     *master.DeployedGroup
	readyAt sim.Time
	newGrp  bool
	done    bool
}

// promotedSlowdown is the degraded serving speed of a destination promoted
// before its background reload finished: the surviving replicas answer the
// drain remainder at half speed until the reload would have completed.
const promotedSlowdown = 0.5

// Controller is the per-deployment online re-consolidation loop. It runs on
// the deployment's sim clock — every decision happens inside an engine
// callback, so same-seed runs are byte-deterministic — and requires a
// shared-domain deployment (the experiment/replay clock layout).
//
// Join and Leave are the churn intake and are safe to call from any
// goroutine; everything else the loop does by itself at each tick:
//
//  1. stream activity deltas from the group monitors into the live placer
//     profiles (drift detection),
//  2. process departures and joins,
//  3. repair infeasible groups locally — single-tenant moves chosen by
//     bounded T_best scans — falling back to a scoped
//     advisor.Reconsolidate when local moves cannot restore the
//     fuzzy-capacity constraint,
//  4. execute placements as live migrations: provision in the background
//     (Table 5.1 startup + reload), drain through the source group, then
//     flip the tenant→group index atomically at cutover.
type Controller struct {
	cfg  Config
	grid epoch.Grid
	eng  *sim.Engine
	dep  *master.Deployment
	mst  *master.Master
	adv  *advisor.Advisor
	pl   *Placer

	// Engine-side state (touched only inside engine callbacks).
	logs     map[string]*workload.TenantLog
	tenants  map[string]*tenant.Tenant
	drifted  map[string]bool
	retiring map[string]bool
	inflight map[int]*flight
	nextGID  int
	nextMig  int

	// Cross-goroutine state.
	mu         sync.Mutex
	joinQ      []*workload.TenantLog
	leaveQ     []string
	stats      Stats
	migrations []Migration
	drained    []monitor.QueryRecord
	lastReport *advisor.ReconsolidationReport
	stopped    bool
	started    bool
}

// New builds a controller for a live shared-domain deployment. plan is the
// deployed plan, logs the planning-time activity of every deployed tenant.
func New(eng *sim.Engine, dep *master.Deployment, mst *master.Master,
	plan *advisor.Plan, logs []*workload.TenantLog, cfg Config) (*Controller, error) {
	if dep.Sharded() {
		return nil, fmt.Errorf("online: sharded deployments are not supported; deploy with a shared domain")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("online: non-positive horizon %v", cfg.Horizon)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Minute
	}
	grid, err := epoch.NewGrid(cfg.Plan.Epoch, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	adv, err := advisor.New(cfg.Plan)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		grid:     grid,
		eng:      eng,
		dep:      dep,
		mst:      mst,
		adv:      adv,
		pl:       NewPlacer(grid.D, cfg.Plan.R, cfg.Plan.P),
		logs:     make(map[string]*workload.TenantLog),
		tenants:  make(map[string]*tenant.Tenant),
		drifted:  make(map[string]bool),
		retiring: make(map[string]bool),
		inflight: make(map[int]*flight),
	}
	byID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		byID[tl.Tenant.ID] = tl
	}
	for _, pg := range plan.Groups {
		if _, err := c.pl.AddGroup(pg.ID, pg.Design.N1); err != nil {
			return nil, err
		}
		for _, id := range pg.TenantIDs {
			tl, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("online: no log for deployed tenant %s", id)
			}
			if _, err := c.pl.Register(id, tl.Tenant.Nodes, grid.Quantize(tl.Activity)); err != nil {
				return nil, err
			}
			if err := c.pl.Assign(id, pg.ID); err != nil {
				return nil, err
			}
			c.logs[id] = tl
			c.tenants[id] = tl.Tenant
		}
	}
	c.stats.Groups = len(plan.Groups)
	c.stats.Tenants = len(c.tenants)
	return c, nil
}

// Placer exposes the live partition (tests and diagnostics; engine-side
// callers only).
func (c *Controller) Placer() *Placer { return c.pl }

// Start arms the control loop: the first tick fires one interval from now.
// Strictly opt-in — an unarmed deployment replays byte-identically to the
// pre-online code.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.eng.After(c.cfg.Interval, c.tick)
}

// Stop halts the loop after the current tick.
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Join registers a tenant arriving with its (possibly short) activity
// history; the next tick places it. Safe from any goroutine.
func (c *Controller) Join(tl *workload.TenantLog) {
	c.mu.Lock()
	c.joinQ = append(c.joinQ, tl)
	c.mu.Unlock()
}

// Leave registers a tenant's departure; the next tick withdraws it. Safe
// from any goroutine.
func (c *Controller) Leave(tenantID string) {
	c.mu.Lock()
	c.leaveQ = append(c.leaveQ, tenantID)
	c.mu.Unlock()
}

// Status returns a snapshot of the loop's counters.
func (c *Controller) Status() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Migrations returns a copy of every migration the loop has executed or
// has in flight.
func (c *Controller) Migrations() []Migration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Migration, len(c.migrations))
	copy(out, c.migrations)
	return out
}

// DrainedRecords returns the completed-query records of every group the
// loop has retired (a retired group's monitor leaves the deployment when its
// nodes are released, so Deployment.Records alone undercounts).
func (c *Controller) DrainedRecords() []monitor.QueryRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]monitor.QueryRecord, len(c.drained))
	copy(out, c.drained)
	return out
}

// LastReport returns the most recent scoped re-consolidation report, or nil
// when local repair has handled everything so far.
func (c *Controller) LastReport() *advisor.ReconsolidationReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastReport
}

func (c *Controller) events() *telemetry.EventLog { return c.dep.Telemetry().Events }

// tick is one control period; it runs as an engine callback.
func (c *Controller) tick(now sim.Time) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	joins := c.joinQ
	leaves := c.leaveQ
	c.joinQ = nil
	c.leaveQ = nil
	c.mu.Unlock()

	c.watchMigrations(now)
	c.ingestDeltas(now)
	for _, id := range leaves {
		c.processLeave(now, id)
	}
	for _, tl := range joins {
		c.processJoin(now, tl)
	}
	for _, gid := range c.pl.Infeasible() {
		c.repairGroup(now, gid)
	}

	c.mu.Lock()
	c.stats.Ticks++
	c.stats.LastTickAt = now
	c.stats.Groups = len(c.pl.order)
	c.stats.Tenants = c.pl.Tenants()
	c.stats.Infeasible = len(c.pl.Infeasible())
	stopped := c.stopped
	c.mu.Unlock()
	if !stopped {
		c.eng.After(c.cfg.Interval, c.tick)
	}
}

// ingestDeltas streams each tenant's newly observed activity epochs into
// the live partition — the "as queries complete" feed: the group monitors
// record completions, and each tick the loop quantizes the trailing
// observed activity and diffs it against the tenant's running profile.
func (c *Controller) ingestDeltas(now sim.Time) {
	ids := make([]string, 0, len(c.pl.tenants))
	for id := range c.pl.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var total int64
	for _, id := range ids {
		grt, ok := c.dep.GroupFor(id)
		if !ok {
			continue // mid-migration: not currently routable
		}
		obs := c.grid.Quantize(grt.Monitor.TenantActivity(id))
		if len(obs) == 0 {
			continue
		}
		t, _ := c.pl.Tenant(id)
		delta := obs.Diff(t.Spans)
		if len(delta) == 0 {
			continue
		}
		if _, err := c.pl.Ingest(id, delta); err != nil {
			continue
		}
		total += delta.Len()
		if !c.drifted[id] && t.DeltaEpochs >= driftEpochs {
			c.drifted[id] = true
			c.events().Publish(telemetry.Event{
				Type:   telemetry.EventDriftDetected,
				Group:  t.Group,
				Tenant: id,
				Value:  float64(t.DeltaEpochs),
				Detail: "observed activity diverged from planned profile",
			})
			c.mu.Lock()
			c.stats.Drifts++
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.stats.DeltaEpochs += total
	c.mu.Unlock()
}

// processLeave withdraws a departed tenant: it stops routing immediately,
// its profile leaves the partition, and a fully vacated group retires after
// the drain slack.
func (c *Controller) processLeave(now sim.Time, id string) {
	t, ok := c.pl.Tenant(id)
	if !ok {
		return
	}
	gid := t.Group
	if err := c.pl.Drop(id); err != nil {
		return
	}
	delete(c.logs, id)
	delete(c.tenants, id)
	delete(c.drifted, id)
	c.dep.Plane().Unindex([]string{id})
	if grt, ok := c.dep.Plane().GroupByID(gid); ok {
		grt.Router.RemoveTenant(id)
		grt.Monitor.Exclude(id)
		grt.RemoveMember(id)
	}
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventOnlineReplan,
		Group:  gid,
		Tenant: id,
		Detail: "departed",
	})
	c.mu.Lock()
	c.stats.Leaves++
	c.mu.Unlock()
	c.maybeRetire(gid)
}

// maybeRetire removes a fully vacated group from the live partition and
// hands it to retireWhenDrained. The partition-level removal is immediate —
// no new tenant can be placed there — but the runtime group keeps serving
// until every outbound migration has cut over and the drain slack expires.
func (c *Controller) maybeRetire(gid string) {
	if g, ok := c.pl.Group(gid); ok {
		if g.Size() > 0 {
			return
		}
		if err := c.pl.RemoveGroup(gid); err != nil {
			return
		}
	}
	c.retireWhenDrained(gid)
}

// retireWhenDrained retires a group that has left the partition once no
// member routes through it anymore. While outbound migrations are still
// provisioning, their tenants keep draining queries through this group; the
// last cutover removes the final member and retries the retirement, and only
// then does the drain-slack clock start.
func (c *Controller) retireWhenDrained(gid string) {
	if c.retiring[gid] {
		return
	}
	if _, ok := c.pl.Group(gid); ok {
		return // back in the partition (shouldn't happen, but stay safe)
	}
	grt, ok := c.dep.Plane().GroupByID(gid)
	if !ok || len(grt.Members) > 0 {
		return
	}
	c.retiring[gid] = true
	c.eng.After(drainSlack, func(at sim.Time) {
		grt, ok := c.dep.Plane().GroupByID(gid)
		if !ok {
			return
		}
		// Releasing the group takes its monitor out of the deployment, so
		// keep its completed-query records for end-of-run accounting: they
		// are materialised out of the monitor's log into c.drained, which
		// shares nothing with the monitor.
		c.mu.Lock()
		c.drained = grt.Monitor.AppendRecords(c.drained)
		c.mu.Unlock()
		freed := c.dep.ReleaseGroup(grt)
		c.events().Publish(telemetry.Event{
			Type:   telemetry.EventGroupRetired,
			Group:  gid,
			Value:  float64(freed),
			Detail: "drained after migration",
		})
		c.mu.Lock()
		c.stats.GroupsRetired++
		c.mu.Unlock()
	})
}

// processJoin places an arriving tenant: into the best existing group when
// one stays feasible (a pure reload migration), otherwise into a freshly
// provisioned group (startup + reload).
func (c *Controller) processJoin(now sim.Time, tl *workload.TenantLog) {
	id := tl.Tenant.ID
	if _, ok := c.pl.Tenant(id); ok {
		return // duplicate join
	}
	profile := c.grid.Quantize(tl.Activity)
	if _, err := c.pl.Register(id, tl.Tenant.Nodes, profile); err != nil {
		return
	}
	c.logs[id] = tl
	c.tenants[id] = tl.Tenant
	c.mu.Lock()
	c.stats.Joins++
	c.mu.Unlock()

	if gid, ok := c.pl.BestGroup(tl.Tenant.Nodes, profile, ""); ok {
		c.pl.Assign(id, gid)
		c.events().Publish(telemetry.Event{
			Type:   telemetry.EventOnlineReplan,
			Group:  gid,
			Tenant: id,
			Detail: "join placed in existing group",
		})
		c.migrateInto(now, "join", id, "", gid)
		return
	}
	// No feasible home: provision a new group for the tenant.
	gid, err := c.deployNewGroup(now, "join", []string{id}, nil)
	if err != nil {
		// Placement failed (e.g. pool exhausted): withdraw the join.
		c.pl.Drop(id)
		delete(c.logs, id)
		delete(c.tenants, id)
		return
	}
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventOnlineReplan,
		Group:  gid,
		Tenant: id,
		Detail: "join provisioned new group",
	})
}

// migrateInto executes a single-tenant live migration into an existing
// group: the tenant's data bulk-loads onto the target's MPPDBs while
// queries keep draining through the source (or, for a join, while the
// tenant is not yet routable), then the tenant→group index flips at
// cutover.
func (c *Controller) migrateInto(now sim.Time, kind, id, from, to string) {
	tn := c.tenants[id]
	grt, ok := c.dep.Plane().GroupByID(to)
	if !ok {
		return
	}
	for _, inst := range grt.Instances {
		inst.DeployTenant(tn.ID, tn.DataGB)
	}
	// Migrations pay the parallel bulk-load cost (Table 5.1).
	cost := sim.Duration(cluster.LoadTime(tn.DataGB, grt.Plan.Design.N1, true))
	if c.cfg.Immediate {
		cost = 0
	}
	readyAt := now + cost
	mid := c.recordMigration(Migration{
		Kind: kind, Tenants: []string{id}, From: from, To: to,
		Started: now, ReadyAt: readyAt,
	})
	fl := &flight{
		mid: mid, kind: kind, ids: []string{id},
		from: map[string]string{id: from}, to: to, grt: grt, readyAt: readyAt,
	}
	c.inflight[mid] = fl
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventMigrationStarted,
		Group:  to,
		Tenant: id,
		Value:  float64(cost) / float64(sim.Second),
		Detail: fmt.Sprintf("kind=%s from=%s", kind, from),
	})
	c.eng.Schedule(readyAt, func(at sim.Time) {
		c.cutOverTenant(at, fl)
	})
}

// cutOverTenant flips one tenant to its provisioned target group. The
// source keeps the tenant's routing entry until the drain slack expires, so
// a submit that resolved the source just before the flip still lands there
// — live migration never drops queries. A destination that died during the
// background reload aborts the cutover instead: the nodes come back, the
// tenant is re-placed, and it keeps draining through the live source.
func (c *Controller) cutOverTenant(at sim.Time, fl *flight) {
	if fl.done {
		return // aborted or promoted before the reload finished
	}
	if groupDead(fl.grt) {
		c.abortMigration(at, fl, "destination_died")
		return
	}
	fl.done = true
	delete(c.inflight, fl.mid)
	id := fl.ids[0]
	grt, ok := c.dep.Plane().GroupByID(fl.to)
	if !ok {
		return
	}
	tn, ok := c.tenants[id]
	if !ok {
		return // departed while migrating
	}
	if err := grt.Router.AddTenant(tn); err != nil {
		return
	}
	grt.AddMember(tn)
	c.dep.Plane().Index([]string{id}, grt)
	c.releaseSource(id, fl.from[id])
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventMigrationCutover,
		Group:  fl.to,
		Tenant: id,
		Detail: fmt.Sprintf("from=%s", fl.from[id]),
	})
	c.finishMigration(fl.mid)
}

// groupDead reports whether any of the group's instances has died. Stopped
// only gates new submits — executions already in flight still finish — so
// death itself never drops queries; what it kills is the group's ability to
// absorb the drain remainder, which is what the crash watchers repair.
func groupDead(grt *master.DeployedGroup) bool {
	for _, inst := range grt.Instances {
		if inst.State() == mppdb.Stopped {
			return true
		}
	}
	return false
}

// watchMigrations is the tick-time crash watch over in-flight migrations. A
// dead destination aborts the migration before its cutover would fire and
// re-places the tenants; a dead source promotes the destination early so the
// drain remainder routes through degraded serving instead of a black hole.
func (c *Controller) watchMigrations(now sim.Time) {
	if len(c.inflight) == 0 {
		return
	}
	mids := make([]int, 0, len(c.inflight))
	for mid := range c.inflight {
		mids = append(mids, mid)
	}
	sort.Ints(mids)
	for _, mid := range mids {
		fl, ok := c.inflight[mid]
		if !ok || fl.done {
			continue
		}
		if groupDead(fl.grt) {
			c.abortMigration(now, fl, "destination_died")
			continue
		}
		for _, id := range fl.ids {
			src := fl.from[id]
			if src == "" {
				continue
			}
			sg, ok := c.dep.Plane().GroupByID(src)
			if !ok {
				continue
			}
			if groupDead(sg) {
				c.promoteMigration(now, fl)
				break
			}
		}
	}
}

// abortMigration unwinds a migration whose destination died during the
// background reload: the half-loaded data is scrubbed from the surviving
// replicas, a destination provisioned just for this migration releases its
// nodes back to the pool, and every tenant is re-placed — into the best
// surviving group when one is feasible, onto a freshly provisioned group
// otherwise, or back onto its live source as a last resort. The sources
// kept serving throughout, so no query is dropped.
func (c *Controller) abortMigration(at sim.Time, fl *flight, cause string) {
	fl.done = true
	delete(c.inflight, fl.mid)
	for _, id := range fl.ids {
		for _, inst := range fl.grt.Instances {
			inst.RemoveTenant(id)
		}
		c.pl.Unassign(id)
	}
	freed := 0
	if fl.newGrp {
		// The group never served a query; forget it and free its nodes
		// (release also covers the dead instance's — the repair pipeline is
		// the pool's own concern).
		c.pl.RemoveGroup(fl.to)
		freed = c.dep.ReleaseGroup(fl.grt)
	}
	c.mu.Lock()
	for i := range c.migrations {
		if c.migrations[i].ID == fl.mid {
			c.migrations[i].Failed = true
			c.migrations[i].Failure = cause
			c.migrations[i].Resolution = "re_placed"
			break
		}
	}
	c.stats.MigrationsAborted++
	c.mu.Unlock()
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventMigrationAborted,
		Group:  fl.to,
		Value:  float64(freed),
		Detail: fmt.Sprintf("cause=%s kind=%s tenants=%d", cause, fl.kind, len(fl.ids)),
	})
	for _, id := range fl.ids {
		t, ok := c.pl.Tenant(id)
		if !ok {
			continue // departed while migrating
		}
		src := fl.from[id]
		if gid, ok := c.pl.BestGroup(t.Nodes, t.Spans, fl.to); ok {
			c.pl.Assign(id, gid)
			if gid != src {
				c.migrateInto(at, fl.kind, id, src, gid)
			}
			continue
		}
		if _, err := c.deployNewGroup(at, fl.kind, []string{id}, map[string]string{id: src}); err == nil {
			continue
		}
		if src != "" {
			c.pl.Assign(id, src) // revert: stays routed through the live source
			continue
		}
		// A join whose only home died and nothing else fits: withdraw it.
		c.pl.Drop(id)
		delete(c.logs, id)
		delete(c.tenants, id)
	}
}

// promoteMigration cuts a migration over early because its source died
// mid-drain: the surviving destination replicas open for serving now — at
// promotedSlowdown until the background reload would have finished — and the
// tenant→group index flips immediately, so the drain remainder routes
// through degraded serving instead of the dead source.
func (c *Controller) promoteMigration(now sim.Time, fl *flight) {
	fl.done = true
	delete(c.inflight, fl.mid)
	for _, inst := range fl.grt.Instances {
		if inst.State() == mppdb.Stopped {
			continue
		}
		if inst.State() != mppdb.Ready {
			inst.SetState(mppdb.Ready)
		}
		if now < fl.readyAt && inst.Slowdown() == 1 {
			inst := inst
			_ = inst.SetSlowdown(promotedSlowdown)
			c.eng.Schedule(fl.readyAt, func(sim.Time) {
				// Lift the degradation unless something else (a chaos
				// injection) has re-pinned the speed meanwhile.
				if inst.Slowdown() == promotedSlowdown {
					_ = inst.SetSlowdown(1)
				}
			})
		}
	}
	if fl.newGrp {
		// DeployGroup already registered the tenants on the new group's
		// router; only the index flip was pending.
		c.dep.Plane().Index(fl.ids, fl.grt)
	} else if tn, ok := c.tenants[fl.ids[0]]; ok {
		if err := fl.grt.Router.AddTenant(tn); err == nil {
			fl.grt.AddMember(tn)
		}
		c.dep.Plane().Index(fl.ids[:1], fl.grt)
	}
	for _, id := range fl.ids {
		c.releaseSource(id, fl.from[id])
	}
	c.mu.Lock()
	for i := range c.migrations {
		if c.migrations[i].ID == fl.mid {
			c.migrations[i].CutOver = true
			c.migrations[i].Resolution = "promoted_early"
			break
		}
	}
	c.stats.MigrationsCutOver++
	c.stats.MigrationsPromoted++
	c.mu.Unlock()
	c.events().Publish(telemetry.Event{
		Type:  telemetry.EventMigrationPromoted,
		Group: fl.to,
		Detail: fmt.Sprintf("source died mid-drain; destination serving at %.2gx until %v",
			promotedSlowdown, fl.readyAt),
	})
}

// releaseSource detaches a migrated-away tenant from its source group at
// cutover: the monitor stops attributing it, and after the drain slack the
// stale routing entry and the data copy go away. If this was the last routed
// member of a group the partition has already dropped, the source's own
// drain-out can now begin.
func (c *Controller) releaseSource(id, from string) {
	if from == "" {
		return
	}
	src, ok := c.dep.Plane().GroupByID(from)
	if !ok {
		return
	}
	src.Monitor.Exclude(id)
	src.RemoveMember(id)
	c.eng.After(drainSlack, func(sim.Time) {
		src.Router.RemoveTenant(id)
		for _, inst := range src.Instances {
			inst.RemoveTenant(id)
		}
	})
	c.retireWhenDrained(from)
}

// deployNewGroup provisions a fresh group for the given tenants (already
// registered in the placer, unassigned) and schedules its cutover; from maps
// each tenant to the group it is migrating away from ("" or absent for a
// join). Until cutover the tenants keep draining queries through their
// sources. Returns the new group's ID.
func (c *Controller) deployNewGroup(now sim.Time, kind string, ids []string, from map[string]string) (string, error) {
	n1 := 0
	for _, id := range ids {
		if c.tenants[id].Nodes > n1 {
			n1 = c.tenants[id].Nodes
		}
	}
	design, err := tdd.NewClusterDesign(c.cfg.Plan.R, n1, n1)
	if err != nil {
		return "", err
	}
	gid := fmt.Sprintf("TG-ON%04d", c.nextGID)
	c.nextGID++
	pg := advisor.PlannedGroup{ID: gid, TenantIDs: append([]string(nil), ids...), Design: design}
	grt, readyAt, err := c.mst.DeployGroup(c.dep, pg, c.cfg.Plan.P, c.tenants)
	if err != nil {
		return "", err
	}
	if c.cfg.Immediate {
		readyAt = now
	}
	if _, err := c.pl.AddGroup(gid, n1); err != nil {
		return "", err
	}
	for _, id := range ids {
		c.pl.Assign(id, gid)
	}
	// When every tenant shares one source (the usual split), record it.
	src := from[ids[0]]
	for _, id := range ids[1:] {
		if from[id] != src {
			src = ""
			break
		}
	}
	mid := c.recordMigration(Migration{
		Kind: kind, Tenants: append([]string(nil), ids...), From: src, To: gid,
		Started: now, ReadyAt: readyAt,
	})
	srcOf := make(map[string]string, len(ids))
	for _, id := range ids {
		srcOf[id] = from[id]
	}
	fl := &flight{
		mid: mid, kind: kind, ids: pg.TenantIDs,
		from: srcOf, to: gid, grt: grt, readyAt: readyAt, newGrp: true,
	}
	c.inflight[mid] = fl
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventMigrationStarted,
		Group:  gid,
		Value:  float64(readyAt-now) / float64(sim.Second),
		Detail: fmt.Sprintf("kind=%s tenants=%d", kind, len(ids)),
	})
	c.eng.Schedule(readyAt, func(at sim.Time) {
		c.cutOverGroup(at, fl)
	})
	return gid, nil
}

// cutOverGroup flips a freshly provisioned group's tenants live once the
// background reload finishes — unless the group died while loading, in which
// case the migration aborts and the tenants re-place from their still-serving
// sources.
func (c *Controller) cutOverGroup(at sim.Time, fl *flight) {
	if fl.done {
		return // aborted or promoted before the reload finished
	}
	if groupDead(fl.grt) {
		c.abortMigration(at, fl, "destination_died")
		return
	}
	fl.done = true
	delete(c.inflight, fl.mid)
	c.dep.Plane().Index(fl.ids, fl.grt)
	for _, id := range fl.ids {
		c.releaseSource(id, fl.from[id])
	}
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventMigrationCutover,
		Group:  fl.to,
		Detail: fmt.Sprintf("tenants=%d", len(fl.ids)),
	})
	c.finishMigration(fl.mid)
}

// repairGroup restores an infeasible group. Local repair first: members are
// ranked by how much their departure relieves the over-budget epochs, and
// the loop tries to move the most relieving member whose profile fits some
// other group under the T_best rule — each examined candidate costs one
// bounded preview per group, so a repair decision is several orders of
// magnitude cheaper than a re-solve. Only when the budget of local moves is
// exhausted (or no member can move anywhere) does the loop escalate to a
// scoped advisor.Reconsolidate of just this group.
func (c *Controller) repairGroup(now sim.Time, gid string) {
	moves := 0
	for !c.pl.Feasible(gid) && moves < maxLocalMoves {
		progress := false
		for _, id := range c.pl.EvictionOrder(gid) {
			t, _ := c.pl.Tenant(id)
			if err := c.pl.Unassign(id); err != nil {
				continue
			}
			target, ok := c.pl.BestGroup(t.Nodes, t.Spans, gid)
			if ok {
				c.pl.Assign(id, target)
				c.events().Publish(telemetry.Event{
					Type:   telemetry.EventOnlineReplan,
					Group:  gid,
					Tenant: id,
					Detail: fmt.Sprintf("local repair move to %s", target),
				})
				c.mu.Lock()
				c.stats.LocalMoves++
				c.mu.Unlock()
				c.migrateInto(now, "move", id, gid, target)
				moves++
				progress = true
				break
			}
			c.pl.Assign(id, gid) // revert: nowhere to go
		}
		if !progress {
			break
		}
	}
	if !c.pl.Feasible(gid) {
		c.fallbackReconsolidate(now, gid)
	} else {
		c.maybeRetire(gid)
	}
}

// fallbackReconsolidate re-solves one broken group offline: the scoped
// advisor run sees only this group's members (with their drifted, live
// profiles), and its output — one or more replacement groups plus possible
// exclusions onto dedicated groups — is executed as a split migration. The
// vacated source group drains and retires.
func (c *Controller) fallbackReconsolidate(now sim.Time, gid string) {
	g, ok := c.pl.Group(gid)
	if !ok {
		return
	}
	grt, ok := c.dep.Plane().GroupByID(gid)
	if !ok {
		return
	}
	members := g.Members()
	prev := &advisor.Plan{
		Config: c.cfg.Plan,
		Groups: []advisor.PlannedGroup{{
			ID:        gid,
			TenantIDs: members,
			Design:    grt.Plan.Design,
		}},
	}
	logs := make([]*workload.TenantLog, 0, len(members))
	for _, id := range members {
		t, _ := c.pl.Tenant(id)
		logs = append(logs, &workload.TenantLog{
			Tenant:   c.tenants[id],
			Activity: c.activityFromSpans(t.Spans),
		})
	}
	next, rep, err := c.adv.Reconsolidate(advisor.ReconsolidationInput{
		Previous:      prev,
		Logs:          logs,
		FlaggedGroups: []string{gid},
	}, c.cfg.Horizon)
	if err != nil {
		return
	}
	c.events().Publish(telemetry.Event{
		Type:   telemetry.EventOnlineFallback,
		Group:  gid,
		Value:  float64(rep.RepackedTenants),
		Detail: fmt.Sprintf("scoped re-consolidation into %d groups, %d excluded", len(next.Groups), len(next.Excluded)),
	})
	c.mu.Lock()
	c.stats.Fallbacks++
	c.lastReport = rep
	c.mu.Unlock()

	place := func(ids []string) {
		from := make(map[string]string, len(ids))
		for _, id := range ids {
			if t, ok := c.pl.Tenant(id); ok {
				from[id] = t.Group
			}
			c.pl.Unassign(id)
		}
		c.deployNewGroup(now, "split", ids, from)
	}
	for _, pg := range next.Groups {
		place(pg.TenantIDs)
	}
	for _, e := range next.Excluded {
		// Over-active or bursty member: a dedicated single-tenant group.
		place([]string{e.TenantID})
	}
	// Anyone the re-solve failed to place stays put (the group remains
	// infeasible and will be retried next tick).
	c.maybeRetire(gid)
}

// Audit re-expresses the live partition as a grouping.Solution and checks it
// against the LIVBPwFC constraint with the same Verify the offline solvers
// answer to. Engine-side callers only (it reads the live placer).
func (c *Controller) Audit() error {
	p := &grouping.Problem{D: c.grid.D, R: c.cfg.Plan.R, P: c.cfg.Plan.P}
	var groups [][]string
	for _, g := range c.pl.Groups() {
		if g.Size() == 0 {
			continue
		}
		members := g.Members()
		groups = append(groups, members)
		for _, id := range members {
			t, _ := c.pl.Tenant(id)
			p.Items = append(p.Items, &grouping.Item{ID: id, Nodes: t.Nodes, Spans: t.Spans})
		}
	}
	sol, err := grouping.SolutionFromMembers(p, groups, "online")
	if err != nil {
		return err
	}
	return grouping.Verify(p, sol)
}

// recordMigration appends a migration record and bumps the started counter.
func (c *Controller) recordMigration(m Migration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.ID = c.nextMig
	c.nextMig++
	c.migrations = append(c.migrations, m)
	c.stats.MigrationsStarted++
	return m.ID
}

// finishMigration marks a migration cut over.
func (c *Controller) finishMigration(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.migrations {
		if c.migrations[i].ID == id {
			c.migrations[i].CutOver = true
			break
		}
	}
	c.stats.MigrationsCutOver++
}

// activityFromSpans converts a grid profile back to interval form for the
// scoped offline re-solve (sub-epoch detail is gone, which is exactly the
// planner's own resolution).
func (c *Controller) activityFromSpans(sp epoch.Spans) epoch.Activity {
	out := make(epoch.Activity, 0, len(sp))
	for _, s := range sp {
		out = append(out, epoch.Interval{
			Start: sim.Time(s.S) * c.grid.Width,
			End:   sim.Time(s.E) * c.grid.Width,
		})
	}
	return out
}
