package experiments

import (
	"fmt"

	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// fig11Nodes is the node-count axis of the Figure 1.1 speedup plots.
var fig11Nodes = []int{1, 2, 4, 6, 8}

// measureShared runs x tenants' instances of one query class on a shared
// n-node MPPDB (each tenant holding its own TPC-H SF100 = 100 GB dataset)
// and returns the mean observed latency. Sequential submission runs the
// queries one after another; concurrent submits them together.
func measureShared(classID string, nodes, tenants int, concurrent bool) (sim.Time, error) {
	eng := sim.NewEngine()
	inst := mppdb.New(eng, "shared", nodes)
	cat := defaultCatalog()
	class, ok := cat.ByID(classID)
	if !ok {
		return 0, fmt.Errorf("experiments: unknown class %s", classID)
	}
	refs := make([]tenant.Ref, tenants)
	for i := range refs {
		refs[i] = inst.Interner().Intern(fmt.Sprintf("tenant%d", i))
		inst.DeployTenantRef(refs[i], 100) // SF100
	}
	var total sim.Time
	done := 0
	// submit starts tenant i's query, tagged with i.
	submit := func(i int) {
		if _, err := inst.SubmitTagged(refs[i], class, uint64(i)); err != nil {
			panic(err) // deployment above guarantees tenants exist
		}
	}
	inst.SetCompletionHandler(func(r mppdb.Result, _ uint64) {
		total += r.Latency()
		done++
		if !concurrent && done < tenants {
			submit(done)
		}
	})
	if concurrent {
		for i := 0; i < tenants; i++ {
			submit(i)
		}
	} else {
		submit(0)
	}
	eng.RunAll()
	if done != tenants {
		return 0, fmt.Errorf("experiments: %d of %d queries completed", done, tenants)
	}
	return total / sim.Time(tenants), nil
}

// speedupSeries produces the Fig 1.1a/c layout: speedup relative to the
// single-tenant 1-node latency, for 1T, 2T-SEQ, 2T-CON, 4T-SEQ, 4T-CON.
func speedupSeries(classID string) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("speedup of %s on a shared MPPDB (vs 1-node single tenant)", classID),
		Columns: []string{"nodes", "1T", "2T-SEQ", "2T-CON", "4T-SEQ", "4T-CON"},
	}
	base, err := measureShared(classID, 1, 1, false)
	if err != nil {
		return nil, err
	}
	type series struct {
		tenants    int
		concurrent bool
	}
	cfgs := []series{{1, false}, {2, false}, {2, true}, {4, false}, {4, true}}
	for _, n := range fig11Nodes {
		row := []any{n}
		for _, c := range cfgs {
			lat, err := measureShared(classID, n, c.tenants, c.concurrent)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(base)/float64(lat)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig11aSpeedup reproduces Figure 1.1a: TPC-H Q1 scales out linearly for a
// single tenant and for sequential multi-tenancy (xT-SEQ ≈ 1T), while
// concurrent multi-tenancy divides the speedup by the tenant count (xT-CON).
func Fig11aSpeedup() (*Table, error) {
	return speedupSeries("TPCH-Q1")
}

// Fig11cNonLinear reproduces Figure 1.1c: TPC-H Q19 does not scale out
// linearly — its speedup plateaus well below the node count.
func Fig11cNonLinear() (*Table, error) {
	return speedupSeries("TPCH-Q19")
}

// Fig11bLatency reproduces Figure 1.1b's consolidation opportunity: four
// tenants each renting a 2-node MPPDB (point A: the SLA) can be hosted on a
// single 6-node MPPDB; with one active tenant the query is faster than the
// SLA (point B), and even two concurrently active tenants still beat it
// (point C). On the tenants' own 2-node boxes, two or four concurrent
// instances blow through the SLA (points E and F).
func Fig11bLatency() (*Table, error) {
	t := &Table{
		Title:   "Fig 1.1b — TPC-H Q1 latency, 4 × 2-node tenants vs one 6-node MPPDB",
		Columns: []string{"point", "configuration", "latency", "vs SLA (A)"},
	}
	type cfg struct {
		point, desc string
		nodes, act  int
		concurrent  bool
	}
	cfgs := []cfg{
		{"A", "2-node dedicated, 1 active (the SLA)", 2, 1, false},
		{"B", "6-node consolidated, 1 active", 6, 1, false},
		{"C", "6-node consolidated, 2 active concurrently", 6, 2, true},
		{"E", "2-node shared, 2 active concurrently", 2, 2, true},
		{"F", "2-node shared, 4 active concurrently", 2, 4, true},
	}
	var slaSec float64
	for _, c := range cfgs {
		lat, err := measureShared("TPCH-Q1", c.nodes, c.act, c.concurrent)
		if err != nil {
			return nil, err
		}
		sec := lat.Seconds()
		if c.point == "A" {
			slaSec = sec
		}
		t.AddRow(c.point, c.desc, fmt.Sprintf("%.1fs", sec), fmt.Sprintf("%.2f×", sec/slaSec))
	}
	return t, nil
}
