// Restoration re-spread. A whole-domain outage forces mid-outage
// replacements onto the surviving domains, so a group that was spread across
// racks can come out of the outage collapsed onto one — protected against
// nothing the next time a rack dies. Once the domain returns, the heartbeat
// notices the collapse and live-migrates one replica back onto a fresh
// domain with the PR-6 migration mechanics: the target nodes provision and
// reload in the background (Table 5.1 startup + bulk load) while the old
// nodes keep serving, then the pool flips atomically — the instance's
// backing nodes change domains without dropping a query.
package recovery

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// respreadMinDomains is the spread target: the group should span at least
// this many failure domains (capped by the pool's domain count and the
// group's instance count).
const respreadMinDomains = 2

// Respreads returns how many re-spread migrations have cut over.
func (c *Controller) Respreads() int { return c.respreads }

// SetRespread arms the collapse check, evaluated on each heartbeat;
// parallelLoad selects the Table 5.1 parallel bulk-load model for the
// migration reload. Call before Start. Strictly opt-in: unarmed controllers
// behave byte-identically to the pre-domain code.
func (c *Controller) SetRespread(parallelLoad bool) {
	c.respread = true
	c.respreadParallel = parallelLoad
}

// maybeRespread runs on the heartbeat: when the group is healthy but spans
// fewer failure domains than its target, it starts one live replica
// migration onto an unused domain. One migration at a time; if no fresh
// domain has capacity (e.g. the rack is still down), it simply tries again
// next beat.
func (c *Controller) maybeRespread() {
	if !c.respread || c.respreadInFlight || c.InProgress() > 0 {
		return
	}
	if len(c.insts) < 2 || c.pool.Domains() < 2 {
		return
	}
	used := map[int]bool{}
	for _, inst := range c.insts {
		if inst.FailedNodes() > 0 || c.pool.FailedCount(inst.ID()) > 0 {
			return // recover first, re-spread after
		}
		for _, d := range c.pool.OwnerDomains(inst.ID()) {
			used[d] = true
		}
	}
	want := respreadMinDomains
	if c.pool.Domains() < want {
		want = c.pool.Domains()
	}
	if len(c.insts) < want {
		want = len(c.insts)
	}
	if len(used) >= want {
		return
	}
	avoid := make([]int, 0, len(used))
	for d := range used {
		avoid = append(avoid, d)
	}
	// Move the highest-index replica: db0 stays put, so a group's primary
	// placement is stable across repeated collapses.
	inst := c.insts[len(c.insts)-1]
	owner := inst.ID()
	tempOwner := owner + "/respread"
	nodes, doms, err := c.pool.AcquireSpread(tempOwner, inst.Nodes(), avoid)
	if err != nil {
		return // pool too tight; retry next beat
	}
	fresh := false
	for _, d := range doms {
		if !used[d] {
			fresh = true
			break
		}
	}
	if !fresh {
		// Only collapsed domains had capacity (the rack is still down);
		// undo and wait.
		c.pool.Release(tempOwner)
		return
	}
	c.respreadInFlight = true
	cost := cluster.StartupTime(inst.Nodes()) +
		cluster.LoadTime(inst.TenantDataGB(), inst.Nodes(), c.respreadParallel)
	if c.tel != nil {
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRespread,
			Group:  c.group,
			MPPDB:  owner,
			Value:  cost.Seconds(),
			Detail: fmt.Sprintf("group collapsed onto %d domain(s); migrating replica to domain %v (%d nodes, ready in %v)", len(used), doms, len(nodes), cost),
		})
	}
	c.eng.AfterShared(cost, func(sim.Time) { c.finishRespread(inst, owner, tempOwner, doms) })
}

// finishRespread flips (or aborts) the staged migration once the background
// reload is done. If anything died meanwhile — a staged node's domain went
// down, or the instance took a crash — the staging is released and the move
// is retried from scratch by a later beat; the serving nodes were never
// touched, so either way no query is dropped.
func (c *Controller) finishRespread(inst *mppdb.Instance, owner, tempOwner string, doms []int) {
	c.respreadInFlight = false
	abort := func(why string) {
		c.pool.Release(tempOwner)
		if c.tel != nil {
			c.tel.Events.Publish(telemetry.Event{
				Type:   telemetry.EventRespread,
				Group:  c.group,
				MPPDB:  owner,
				Detail: fmt.Sprintf("re-spread aborted: %s; staged nodes released", why),
			})
		}
	}
	if inst.FailedNodes() > 0 || c.pool.FailedCount(owner) > 0 ||
		c.pool.FailedCount(tempOwner) > 0 {
		abort("instance or staged nodes failed during the background reload")
		return
	}
	released, err := c.pool.CompleteRespread(owner, tempOwner)
	if err != nil {
		abort(err.Error())
		return
	}
	c.respreads++
	if c.tel != nil {
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRespread,
			Group:  c.group,
			MPPDB:  owner,
			Value:  float64(len(released)),
			Detail: fmt.Sprintf("re-spread cut over to domain %v; %d source nodes released", doms, len(released)),
		})
	}
}
