package workload

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/epoch"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// testLibrary builds a small shared library once; sessions are expensive
// enough that per-test construction would dominate the suite.
func testLibrary(t *testing.T) *Library {
	t.Helper()
	lib, err := BuildLibrary(queries.Default(), []int{2, 4}, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func testTenants(n int) []*tenant.Tenant {
	rng := rand.New(rand.NewSource(31))
	pop, err := tenant.Population(rng, n, 0.8, []int{2, 4}, tenant.ZoneOffsets)
	if err != nil {
		panic(err)
	}
	return pop
}

func TestComposeBasics(t *testing.T) {
	lib := testLibrary(t)
	tenants := testTenants(20)
	cfg := DefaultComposeConfig(5)
	cfg.Days = 14
	logs, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 20 {
		t.Fatalf("%d logs, want 20", len(logs))
	}
	horizon := cfg.Horizon()
	for _, tl := range logs {
		if !tl.Activity.Valid() {
			t.Fatalf("%s: invalid activity", tl.Tenant.ID)
		}
		for _, iv := range tl.Activity {
			if iv.Start < 0 || iv.End > horizon {
				t.Fatalf("%s: interval %v outside horizon", tl.Tenant.ID, iv)
			}
		}
		// 14 days = 10 weekdays; minus up to 2 holidays, 3 sessions/day.
		ns := len(tl.Sessions)
		if ns < 8*3 || ns > 10*3 {
			t.Errorf("%s: %d sessions, want 24..30", tl.Tenant.ID, ns)
		}
		for _, ref := range tl.Sessions {
			if ref.Log.Nodes != tl.Tenant.Nodes {
				t.Errorf("%s: session of size %d for a %d-node tenant",
					tl.Tenant.ID, ref.Log.Nodes, tl.Tenant.Nodes)
			}
			if ref.Log.Suite != tl.Tenant.Suite {
				t.Errorf("%s: session suite mismatch", tl.Tenant.ID)
			}
		}
	}
}

// TestComposeActivityMatchesOracle checks each tenant's activity against
// Normalize over its sessions' intervals clipped to the horizon, on collected
// sessions and on hand-made ones whose intervals run into the next session's
// and past the horizon, which collected ones do not.
func TestComposeActivityMatchesOracle(t *testing.T) {
	long := &Library{logs: map[libKey][]*SessionLog{}}
	for _, n := range []int{2, 4} {
		for _, suite := range []queries.Suite{queries.TPCH, queries.TPCDS} {
			long.logs[libKey{n, suite}] = []*SessionLog{
				{Nodes: n, Suite: suite, Activity: epoch.Activity{{Start: sim.Minute, End: 2 * sim.Minute}, {Start: 7 * sim.Hour, End: 40 * sim.Hour}}},
				{Nodes: n, Suite: suite, Activity: epoch.Activity{{Start: sim.Hour, End: 2 * sim.Hour}, {Start: 2*sim.Hour + sim.Second, End: 3 * sim.Hour}}},
			}
		}
	}
	for name, lib := range map[string]*Library{"collected": testLibrary(t), "long": long} {
		cfg := DefaultComposeConfig(9)
		cfg.Days, cfg.Lunch = 10, false
		logs, err := Compose(lib, testTenants(30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range logs {
			var ivs []epoch.Interval
			for _, ref := range tl.Sessions {
				ivs = append(ivs, ref.Log.Activity.Shift(ref.Start).Clip(0, cfg.Horizon())...)
			}
			if want := epoch.Normalize(ivs); !slices.Equal(tl.Activity, want) {
				t.Fatalf("%s: %s's activity %v, oracle %v", name, tl.Tenant.ID, tl.Activity, want)
			}
		}
	}
}

func TestComposeWeekendsInactive(t *testing.T) {
	lib := testLibrary(t)
	tenants := testTenants(10)
	cfg := DefaultComposeConfig(5)
	cfg.Days = 14
	logs, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Days 5,6 and 12,13 are weekends. Sessions start at zone offsets up to
	// +19h, and a +19h Friday report session can spill into Saturday, so we
	// check the *start* day of every session is a weekday.
	for _, tl := range logs {
		for _, ref := range tl.Sessions {
			day := int((ref.Start - sim.Time(tl.Tenant.ZoneOffsetHours)*sim.Hour) / sim.Day)
			if day%7 >= 5 {
				t.Fatalf("%s: session scheduled on weekend day %d", tl.Tenant.ID, day)
			}
		}
	}
}

func TestComposeHolidaysSharedPerZone(t *testing.T) {
	lib := testLibrary(t)
	tenants := testTenants(40)
	cfg := DefaultComposeConfig(9)
	cfg.Days = 21
	logs, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Derive each tenant's set of inactive weekdays; within one zone all
	// tenants must share the same holidays.
	inactive := func(tl *TenantLog) map[int]bool {
		days := map[int]bool{}
		for _, ref := range tl.Sessions {
			day := int((ref.Start - sim.Time(tl.Tenant.ZoneOffsetHours)*sim.Hour) / sim.Day)
			days[day] = true
		}
		out := map[int]bool{}
		for d := 0; d < cfg.Days; d++ {
			if d%7 < 5 && !days[d] {
				out[d] = true
			}
		}
		return out
	}
	byZone := map[int]map[int]bool{}
	for _, tl := range logs {
		h := inactive(tl)
		if len(h) != cfg.Holidays {
			t.Fatalf("%s: %d holidays, want %d", tl.Tenant.ID, len(h), cfg.Holidays)
		}
		z := tl.Tenant.ZoneOffsetHours
		if prev, ok := byZone[z]; ok {
			for d := range h {
				if !prev[d] {
					t.Fatalf("zone %+d: holiday sets differ between tenants", z)
				}
			}
		} else {
			byZone[z] = h
		}
	}
}

func TestComposeDeterministic(t *testing.T) {
	lib := testLibrary(t)
	tenants := testTenants(5)
	cfg := DefaultComposeConfig(77)
	cfg.Days = 7
	a, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Sessions) != len(b[i].Sessions) {
			t.Fatal("session counts differ")
		}
		for j := range a[i].Sessions {
			if a[i].Sessions[j].Start != b[i].Sessions[j].Start ||
				a[i].Sessions[j].Log != b[i].Sessions[j].Log {
				t.Fatal("session schedule differs between runs with equal seeds")
			}
		}
	}
}

func TestComposeErrors(t *testing.T) {
	lib := testLibrary(t)
	if _, err := Compose(lib, testTenants(2), ComposeConfig{Days: 0}); err == nil {
		t.Error("zero-day horizon accepted")
	}
	// Tenants of a size class absent from the library.
	bad := []*tenant.Tenant{{ID: "X", Nodes: 16, DataGB: 1600, Users: 1, Suite: queries.TPCH}}
	if _, err := Compose(lib, bad, DefaultComposeConfig(1)); err == nil {
		t.Error("missing size class accepted")
	}
}

func TestMaterialize(t *testing.T) {
	lib := testLibrary(t)
	tenants := testTenants(3)
	cfg := DefaultComposeConfig(13)
	cfg.Days = 7
	logs, err := Compose(lib, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := logs[0]
	all := tl.Materialize(0, cfg.Horizon())
	if len(all) == 0 {
		t.Fatal("no events materialized")
	}
	prev := sim.Time(-1)
	for _, ev := range all {
		if ev.At < prev {
			t.Fatal("events out of order")
		}
		prev = ev.At
		if ev.Tenant != tl.Tenant.ID {
			t.Errorf("event tenant %q", ev.Tenant)
		}
	}
	// Windowing: a sub-window returns a subset.
	some := tl.Materialize(sim.Day, 2*sim.Day)
	for _, ev := range some {
		if ev.At < sim.Day || ev.At >= 2*sim.Day {
			t.Errorf("event at %v outside requested window", ev.At)
		}
	}
	if len(some) >= len(all) {
		t.Error("sub-window did not reduce the event count")
	}
	merged := MaterializeAll(logs, 0, cfg.Horizon())
	if len(merged) <= len(all) {
		t.Error("MaterializeAll lost events")
	}
	prev = -1
	for _, ev := range merged {
		if ev.At < prev {
			t.Fatal("merged events out of order")
		}
		prev = ev.At
	}
}

func TestComputeStats(t *testing.T) {
	// Two tenants, hand-built activities over a 10-epoch horizon.
	grid := epoch.MustGrid(sim.Second, 10*sim.Second)
	logs := []*TenantLog{
		{Tenant: &tenant.Tenant{ID: "a"}, Activity: epoch.Activity{{Start: 0, End: 4 * sim.Second}}},
		{Tenant: &tenant.Tenant{ID: "b"}, Activity: epoch.Activity{{Start: 2 * sim.Second, End: 6 * sim.Second}}},
	}
	st := ComputeStats(logs, grid)
	if st.Tenants != 2 {
		t.Errorf("Tenants = %d", st.Tenants)
	}
	if st.MaxActive != 2 {
		t.Errorf("MaxActive = %d", st.MaxActive)
	}
	// Busy epochs: 0..5 (6 epochs); tenant-epochs: 4+4=8; ratio = 8/(6·2).
	want := 8.0 / 12.0
	if diff := st.MeanActiveRatio - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("MeanActiveRatio = %v, want %v", st.MeanActiveRatio, want)
	}
	if st.PerTenantActiveRatio != 0.4 {
		t.Errorf("PerTenantActiveRatio = %v, want 0.4", st.PerTenantActiveRatio)
	}
	// Degenerate: no logs.
	empty := ComputeStats(nil, grid)
	if empty.MeanActiveRatio != 0 || empty.MaxActive != 0 {
		t.Errorf("empty stats: %+v", empty)
	}
}

// TestComputeStatsMatchesPerTenantAdds compares ComputeStats, which builds
// the population's count function in one CountSet.Fill, with the computation
// it replaced — one Add per tenant — on a population large enough for the
// count function to reach thousands of segments and a maximum in the dozens.
func TestComputeStatsMatchesPerTenantAdds(t *testing.T) {
	if testing.Short() {
		t.Skip("composes 2,000 tenants")
	}
	cat := queries.Default()
	lib, err := BuildLibrary(cat, []int{2, 4}, 4, 61)
	if err != nil {
		t.Fatal(err)
	}
	const days = 7
	logs, err := ComposeVariant(lib, cat, 2000, 0.8, []int{2, 4}, VariantDefault, days, 404)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []sim.Time{MonitorEpoch, 3 * sim.Second} {
		grid := epoch.MustGrid(width, days*sim.Day)
		cs := epoch.NewCountSet(grid.D)
		var perTenant float64
		for _, tl := range logs {
			cs.Add(grid.Quantize(tl.Activity))
			perTenant += tl.Activity.Ratio(days * sim.Day)
		}
		var busy, tenantEpochs int64
		for c, h := range cs.Hist()[1:] {
			busy += h
			tenantEpochs += int64(c+1) * h
		}
		want := Stats{
			Tenants:              len(logs),
			MaxActive:            cs.MaxCount(),
			MeanActiveRatio:      float64(tenantEpochs) / float64(busy) / float64(len(logs)),
			PerTenantActiveRatio: perTenant / float64(len(logs)),
		}
		if want.MaxActive < 12 {
			t.Fatalf("epoch %v: only %d tenants ever active at once", width, want.MaxActive)
		}
		if got := ComputeStats(logs, grid); got != want {
			t.Errorf("epoch %v: ComputeStats = %+v, per-tenant Adds give %+v", width, got, want)
		}
	}
}

func TestHighActivityVariants(t *testing.T) {
	for _, c := range []struct {
		v       HighActivityVariant
		offsets int
		lunch   bool
	}{
		{VariantDefault, len(tenant.ZoneOffsets), true},
		{VariantNorthAmerica, 2, true},
		{VariantNorthAmericaNoLunch, 2, false},
		{VariantSingleZoneNoLunch, 1, false},
	} {
		if got := len(c.v.Offsets()); got != c.offsets {
			t.Errorf("%v: %d offsets, want %d", c.v, got, c.offsets)
		}
		if c.v.Lunch() != c.lunch {
			t.Errorf("%v: lunch = %v", c.v, c.v.Lunch())
		}
		if c.v.String() == "" {
			t.Errorf("variant %d has no name", int(c.v))
		}
	}
	if HighActivityVariant(9).String() == "" {
		t.Error("unknown variant name empty")
	}
}

// TestVariantActivityOrdering reproduces the *ordering* of Fig 7.6's active
// tenant ratios: default < north-america < no-lunch < single-zone. (The
// absolute calibration is covered by the experiments harness.)
func TestVariantActivityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("composes four tenant populations")
	}
	cat := queries.Default()
	lib, err := BuildLibrary(cat, []int{2, 4}, 4, 51)
	if err != nil {
		t.Fatal(err)
	}
	days := 14
	grid := epoch.MustGrid(MonitorEpoch, sim.Time(days)*sim.Day)
	var prev float64
	for _, v := range []HighActivityVariant{
		VariantDefault, VariantNorthAmerica, VariantNorthAmericaNoLunch, VariantSingleZoneNoLunch,
	} {
		logs, err := ComposeVariant(lib, cat, 200, 0.8, []int{2, 4}, v, days, 303)
		if err != nil {
			t.Fatal(err)
		}
		st := ComputeStats(logs, grid)
		if st.MeanActiveRatio <= prev {
			t.Errorf("%v: ratio %.3f not above previous %.3f", v, st.MeanActiveRatio, prev)
		}
		prev = st.MeanActiveRatio
	}
	// The default composition lands near the paper's 11.9%.
	logs, _ := ComposeVariant(lib, cat, 200, 0.8, []int{2, 4}, VariantDefault, days, 303)
	st := ComputeStats(logs, grid)
	if st.MeanActiveRatio < 0.07 || st.MeanActiveRatio > 0.18 {
		t.Errorf("default active ratio %.3f (per-minute) outside 7%%..18%%", st.MeanActiveRatio)
	}
}
