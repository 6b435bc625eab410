package main

import (
	"fmt"
	"time"

	thrifty "repro"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// resolveClasses looks every event's query class up once, outside any timing.
func resolveClasses(cat *queries.Catalog, events []event) ([]*queries.Class, error) {
	out := make([]*queries.Class, len(events))
	for i := range events {
		cl, ok := cat.ByID(events[i].class)
		if !ok {
			return nil, fmt.Errorf("event %d: unknown query class %s", i, events[i].class)
		}
		out[i] = cl
	}
	return out, nil
}

// driveRuntime measures the runtime plane without the HTTP front end: on a
// fresh deployment it resolves each event's tenant with Plane.ForTenantRef
// and submits through GroupRuntime.SubmitBatchAt, the two calls the service
// makes, in windows of the given size split per tenant-group (size 1 is the
// single-submit path). It returns the wall time of the submit loop and how
// many queries had completed one virtual day past the horizon.
func driveRuntime(w *thrifty.Workload, plan *thrifty.Plan, events []event,
	classes []*queries.Class, size int) (time.Duration, int, error) {
	sys, err := deploy(w, plan)
	if err != nil {
		return 0, 0, err
	}
	plane := sys.Deployment.Plane()
	pol := runtime.DefaultRetryPolicy()
	type groupItems struct {
		g     *runtime.GroupRuntime
		items []runtime.BatchItem
	}
	var order []*groupItems
	byGroup := make(map[*runtime.GroupRuntime]*groupItems)
	outs := make([]runtime.BatchOutcome, size)

	start := time.Now()
	for lo := 0; lo < len(events); lo += size {
		hi := min(lo+size, len(events))
		order = order[:0]
		for i := lo; i < hi; i++ {
			g, ref, ok := plane.ForTenantRef(events[i].tenant)
			if !ok {
				return 0, 0, fmt.Errorf("tenant %s not deployed", events[i].tenant)
			}
			gi := byGroup[g]
			if gi == nil {
				gi = &groupItems{g: g}
				byGroup[g] = gi
			}
			if len(gi.items) == 0 {
				order = append(order, gi)
			}
			gi.items = append(gi.items, runtime.BatchItem{
				Tenant: events[i].tenant, Ref: ref, HasRef: ref != runtime.NoTenantRef, Class: classes[i],
			})
		}
		at := events[hi-1].at
		for _, gi := range order {
			gi.g.SubmitBatchAt(at, gi.items, outs, pol)
			for k := range gi.items {
				if outs[k].Err != nil {
					return 0, 0, fmt.Errorf("submit for %s: %w", gi.items[k].Tenant, outs[k].Err)
				}
			}
			gi.items = gi.items[:0]
		}
	}
	wall := time.Since(start)
	plane.AdvanceAll(w.Horizon + sim.Day)
	return wall, len(sys.Deployment.Records()), nil
}
