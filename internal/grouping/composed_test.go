package grouping

import (
	"flag"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/epoch"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// composedProblem builds the instance the repository benchmark plans: n
// tenants' composed multi-day logs quantized on 3 s epochs at R=3, P=99.9%.
// Unlike randomProblem's handful of spans, every tenant carries hundreds, a
// group's count function runs to thousands of segments, and its maximum
// count passes R — the regime the level-view head check exists for.
func composedProblem(tb testing.TB, n, days int, seed int64, sizes []int) *Problem {
	tb.Helper()
	return composedProblemOn(tb, n, days, seed, sizes, 3*sim.Second)
}

// composedProblemOn is composedProblem on epochs of length e.
func composedProblemOn(tb testing.TB, n, days int, seed int64, sizes []int, e sim.Time) *Problem {
	tb.Helper()
	logs, _ := composedLogs(tb, n, days, seed, sizes)
	grid := epoch.MustGrid(e, sim.Time(days)*sim.Day)
	p := &Problem{D: grid.D, R: 3, P: 0.999}
	for _, tl := range logs {
		p.Items = append(p.Items, &Item{ID: tl.Tenant.ID, Nodes: tl.Tenant.Nodes, Spans: grid.Quantize(tl.Activity)})
	}
	return p
}

// composedLogs is composedProblem's population before quantization, with the
// grid it is quantized on.
func composedLogs(tb testing.TB, n, days int, seed int64, sizes []int) ([]*workload.TenantLog, epoch.Grid) {
	tb.Helper()
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, sizes, 10, seed)
	if err != nil {
		tb.Fatal(err)
	}
	logs, err := workload.ComposeVariant(lib, cat, n, 0.8, sizes, workload.VariantDefault, days, seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	return logs, epoch.MustGrid(3*sim.Second, sim.Time(days)*sim.Day)
}

// TestSolverMatchesReferenceComposed is the equivalence property on
// benchmark-shaped input: two size classes, solved one after the other, both
// at once, and at the default width under three GOMAXPROCS settings. Run
// under -race it is the test that catches state shared between two classes'
// searches.
func TestSolverMatchesReferenceComposed(t *testing.T) {
	p := composedProblem(t, 160, 7, 40, []int{4, 8})
	var spans, maxActive int
	classes := map[int]int{}
	for _, it := range p.Items {
		spans += len(it.Spans)
		classes[it.Nodes]++
	}
	if mean := spans / len(p.Items); mean < 200 {
		t.Fatalf("composed items average %d spans, want hundreds", mean)
	}
	if len(classes) != 2 {
		t.Fatalf("%d size classes, want 2 to solve concurrently", len(classes))
	}
	want, err := referenceTwoStep(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, want); err != nil {
		t.Fatalf("reference produced invalid solution: %v", err)
	}
	for _, g := range want.Groups {
		maxActive = max(maxActive, g.MaxActive)
	}
	if maxActive <= p.R {
		t.Fatalf("max active count %d never passes R=%d", maxActive, p.R)
	}
	check := func(procs, workers int) {
		got, err := Solver{Workers: workers}.TwoStep(p)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d workers %d: %v", procs, workers, err)
		}
		if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
			t.Errorf("GOMAXPROCS %d workers %d: solver diverged from reference on composed logs", procs, workers)
		}
	}
	for _, workers := range []int{1, 4} {
		check(runtime.GOMAXPROCS(0), workers)
	}
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() { check(procs, 0) })
	}
}

// BenchmarkTwoStepComposed500 is one benchmark population: 500 tenants, 7
// days.
func BenchmarkTwoStepComposed500(b *testing.B) {
	p := composedProblem(b, 500, 7, 40, tenant.DefaultSizes)
	runAtFirstCPU(b, "3s", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := TwoStep(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := Verify(p, sol); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTwoStepComposed500Fine is the same population on 0.1 s epochs,
// the finest point of the paper's Fig 7.1 sweep: 30× the counters and
// bitmap words of the 3 s grid for the same logs.
func BenchmarkTwoStepComposed500Fine(b *testing.B) {
	p := composedProblemOn(b, 500, 7, 40, tenant.DefaultSizes, sim.Second/10)
	runAtFirstCPU(b, "0.1s", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := TwoStep(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := Verify(p, sol); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyComposed500 is the audit of that population's plan on its
// own: every group re-measured from its members.
func BenchmarkVerifyComposed500(b *testing.B) {
	p := composedProblem(b, 500, 7, 40, tenant.DefaultSizes)
	sol, err := TwoStep(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(p, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantize500 is the same population's logs onto the planner's grid.
// (BenchmarkDetectBursts500, the third per-log pass of a plan, sits in
// internal/advisor, which this package cannot import.)
func BenchmarkQuantize500(b *testing.B) {
	logs, grid := composedLogs(b, 500, 7, 40, tenant.DefaultSizes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tl := range logs {
			if len(grid.Quantize(tl.Activity)) == 0 {
				b.Fatal("idle tenant")
			}
		}
	}
}

// runAtFirstCPU runs f as b's sub-benchmark name, starting at the first width
// of the -test.cpu list, so a -benchtime 1x entry is measured at the width it
// is labelled with (see the root package's runAtFirstCPU).
func runAtFirstCPU(b *testing.B, name string, f func(b *testing.B)) {
	first, _, _ := strings.Cut(flag.Lookup("test.cpu").Value.String(), ",")
	if width, err := strconv.Atoi(first); err == nil {
		runtime.GOMAXPROCS(width)
	}
	b.Run(name, f)
}
