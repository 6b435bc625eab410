package thrifty

import "testing"

// BenchmarkPlanCycle is the advisor layer's bench: one planning cycle of the
// repository benchmark's plan-4x500 shape — PlanDeployment, then Reconsolidate
// with every tenth group flagged — on one 500-tenant, 7-day population from a
// library of 10 sessions per class, seed 40. The planner runs GOMAXPROCS wide,
// so run it at -cpu 1,2 for the serial control beside the parallel figure
// (runAtFirstCPU starts it at the first width); profile it with -cpuprofile.
//
//	go test -run '^$' -bench BenchmarkPlanCycle -cpu 1,2 -benchtime 10x .
func BenchmarkPlanCycle(b *testing.B) {
	w, err := GenerateWorkload(WorkloadConfig{Tenants: 500, Days: 7, SessionsPerClass: 10, Seed: 40})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultPlanConfig()
	runAtFirstCPU(b, "500x7d", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, err := PlanDeployment(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var flagged []string
			for g := 0; g < len(plan.Groups); g += 10 {
				flagged = append(flagged, plan.Groups[g].ID)
			}
			_, rep, err := Reconsolidate(w, plan, cfg, flagged)
			if err != nil {
				b.Fatal(err)
			}
			if rep.KeptGroups != len(plan.Groups)-len(flagged) {
				b.Fatalf("kept %d of %d groups with %d flagged", rep.KeptGroups, len(plan.Groups), len(flagged))
			}
		}
		b.ReportMetric(float64(len(w.Logs)*b.N)/b.Elapsed().Seconds(), "tenants/s")
	})
}
