package service

import (
	"bytes"
	"testing"

	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestServeDumpIndependentOfAdvanceOrder: under serve, requests advance each
// group's clock on their own, in whatever order they arrive. The same
// arrivals — two tenants of two groups, submitting at the same instants — are
// served group A first in one deployment and group B first in another; the
// trace dumps must be the same, since a query's spans are read from its
// group's log in (time, group, sequence) order, not in the order the
// requests came.
func TestServeDumpIndependentOfAdvanceOrder(t *testing.T) {
	tenants := []string{"t1", "t2", "down", "t3"} // "down" gets a group of its own
	cl, ok := queries.Default().ByID("TPCH-Q6")
	if !ok {
		t.Fatal("no TPCH-Q6")
	}
	serve := func(bFirst bool) string {
		dep, _ := deployBatchMix(t, tenants, nil)
		a, _ := dep.GroupFor("t1")
		b, _ := dep.GroupFor("down")
		if a == b {
			t.Fatal("t1 and down share a group")
		}
		order := []struct {
			g  *master.DeployedGroup
			id string
		}{{a, "t1"}, {b, "down"}}
		if bFirst {
			order[0], order[1] = order[1], order[0]
		}
		for _, o := range order {
			for k := 0; k < 40; k++ {
				at := sim.Time(k) * 20 * sim.Second
				if _, _, err := o.g.SubmitGoverned(at, o.id, cl, 0, runtime.DefaultRetryPolicy(), false); err != nil {
					t.Fatal(err)
				}
			}
			o.g.Domain().Advance(sim.Day, nil)
		}
		var b2 bytes.Buffer
		if err := dep.Telemetry().Tracer.Dump(&b2); err != nil {
			t.Fatal(err)
		}
		return b2.String()
	}
	ab, ba := serve(false), serve(true)
	if ab == "" {
		t.Fatal("empty trace dump")
	}
	if ab != ba {
		t.Errorf("the dumps depend on the order the groups were served in\n A then B:\n%s B then A:\n%s", ab, ba)
	}
}
