// Restoration re-spread. A whole-domain outage forces mid-outage
// replacements onto the surviving domains, so a group that was spread across
// racks can come out of the outage collapsed onto one — protected against
// nothing the next time a rack dies. The re-spread check runs on the
// heartbeat grid while the group may be collapsed; once the domain returns,
// it notices the collapse and live-migrates one replica back onto a fresh
// domain through the group's lifecycle: the target nodes are staged and
// reload in the background (Table 5.1 startup + bulk load) while the old
// nodes keep serving, then the lifecycle cuts over — the instance's backing
// nodes change domains without dropping a query.
package recovery

import (
	"fmt"

	"repro/internal/mppdb"
	"repro/internal/telemetry"
)

// respreadMinDomains is the spread target: the group should span at least
// this many failure domains (capped by the pool's domain count and the
// group's instance count).
const respreadMinDomains = 2

// Respreads returns how many re-spread migrations have cut over.
func (c *Controller) Respreads() int { return c.respreads }

// checkSpread keeps the re-spread check on the heartbeat grid while the
// group spans fewer failure domains than its target. It runs at arming, when
// a recovery lifecycle finishes or a re-spread aborts, and after each beat;
// a lifecycle that does not spread (a single-domain pool's) never needs it.
func (c *Controller) checkSpread() {
	if !c.respreadInFlight && c.lc.Spreads() && len(c.insts) >= 2 &&
		len(c.usedDomains()) < min(respreadMinDomains, c.pool.Domains(), len(c.insts)) {
		c.Detect()
	}
}

// usedDomains returns the failure domains of the group's active nodes.
func (c *Controller) usedDomains() map[int]bool {
	used := map[int]bool{}
	for _, inst := range c.insts {
		for _, d := range c.pool.OwnerDomains(inst.ID()) {
			used[d] = true
		}
	}
	return used
}

// maybeRespread runs on the heartbeat of a group whose lifecycle spreads
// (cluster.Lifecycle.Spreads): when the group is healthy but spans
// fewer failure domains than its target, it starts one live replica
// migration onto an unused domain. One migration at a time; if no fresh
// domain has capacity (e.g. the rack is still down), it simply tries again
// next beat.
func (c *Controller) maybeRespread() {
	if !c.lc.Spreads() || c.respreadInFlight || c.InProgress() > 0 || len(c.insts) < 2 {
		return
	}
	for _, inst := range c.insts {
		if inst.FailedNodes() > 0 || c.pool.FailedCount(inst.ID()) > 0 {
			return // recover first, re-spread after
		}
	}
	used := c.usedDomains()
	if len(used) >= min(respreadMinDomains, c.pool.Domains(), len(c.insts)) {
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
	doms, err := c.lc.Stage(tempOwner, inst.Nodes(), avoid)
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
		c.lc.Abort(tempOwner)
		return
	}
	c.respreadInFlight = true
	cost := c.lc.Ready(tempOwner, inst.Nodes(), inst.TenantDataGB(), func(intact bool) {
		c.finishRespread(inst, owner, tempOwner, doms, intact)
	})
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventRespread,
		Group:  c.group,
		MPPDB:  owner,
		Value:  cost.Seconds(),
		Detail: fmt.Sprintf("group collapsed onto %d domain(s); migrating replica to domain %v (%d nodes, ready in %v)", len(used), doms, inst.Nodes(), cost),
	})
}

// finishRespread cuts the staged migration over (or aborts it) once the
// background reload is done. If anything died meanwhile — a staged node's
// domain went down, or the instance took a crash — the lifecycle aborts the
// staging (its failed nodes are re-imaged) and the next beat retries from
// scratch; the serving nodes were never touched, so either way no query is
// dropped.
func (c *Controller) finishRespread(inst *mppdb.Instance, owner, tempOwner string, doms []int, intact bool) {
	c.respreadInFlight = false
	abort := func(why string) {
		c.lc.Abort(tempOwner)
		c.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventRespread,
			Group:  c.group,
			MPPDB:  owner,
			Detail: fmt.Sprintf("re-spread aborted: %s; staged nodes released", why),
		})
		c.checkSpread()
	}
	if !intact || inst.FailedNodes() > 0 || c.pool.FailedCount(owner) > 0 {
		abort("instance or staged nodes failed during the background reload")
		return
	}
	released, err := c.lc.CutOver(owner, tempOwner)
	if err != nil {
		abort(err.Error())
		return
	}
	c.respreads++
	c.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventRespread,
		Group:  c.group,
		MPPDB:  owner,
		Value:  float64(len(released)),
		Detail: fmt.Sprintf("re-spread cut over to domain %v; %d source nodes released", doms, len(released)),
	})
}
