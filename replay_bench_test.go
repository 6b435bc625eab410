package thrifty

import "testing"

// BenchmarkReplay is the replay layer's bench: the repository benchmark's
// replay-7d shape — 200 tenants over 7 days from a library of 10 sessions per
// class, seed 1, planned with the default advisor — replayed whole on a fresh
// deployment per iteration, the deployment built outside the timer. It
// reports ns per replayed query beside the allocation figures; profile it
// with -cpuprofile. bare deploys as the benchmark's replay-7d does
// (Immediate), admission arms admission on top, default deploys as a
// flagless thriftyd does (Immediate, ParallelLoad, 64 spare nodes, admission
// armed), scaler arms the §5.1 scaler on top of default, and gray arms the
// fail-slow detector on top of bare, whose per-minute sampling tick is a
// shared event on every group's engine, so it is the row that measures what
// a Drive barrier costs.
//
//	go test -run '^$' -bench BenchmarkReplay -benchtime 5x -cpuprofile cpu.prof .
func BenchmarkReplay(b *testing.B) {
	w, err := GenerateWorkload(WorkloadConfig{Tenants: 200, Days: 7, SessionsPerClass: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		b.Fatal(err)
	}
	adm, gray := DefaultAdmissionConfig(), DefaultGrayConfig()
	for _, c := range []struct {
		name string
		opts DeployOptions
	}{
		{"bare", DeployOptions{Immediate: true}},
		{"admission", DeployOptions{Immediate: true, Admission: &adm}},
		{"default", DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64, Admission: &adm}},
		{"scaler", DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64, Admission: &adm, Scaling: true}},
		{"gray", DeployOptions{Immediate: true, Gray: &gray}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			queries := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := Deploy(w, plan, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := sys.Replay(ReplayOptions{From: 0, To: w.Horizon})
				if err != nil {
					b.Fatal(err)
				}
				if rep.SubmitErrors != 0 || len(rep.Records) != rep.Submitted {
					b.Fatalf("submitted %d, %d errors, %d completed", rep.Submitted, rep.SubmitErrors, len(rep.Records))
				}
				queries += rep.Submitted
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
		})
	}
}
