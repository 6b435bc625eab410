package thrifty

import (
	"flag"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkReplay is the replay layer's bench: the repository benchmark's
// replay-7d shape — 200 tenants over 7 days from a library of 10 sessions per
// class, seed 1, planned with the default advisor — replayed whole on a fresh
// deployment per iteration, the deployment built outside the timer. It
// reports ns per replayed query beside the allocation figures; profile it
// with -cpuprofile. bare deploys as the benchmark's replay-7d does
// (Immediate), admission arms admission on top, default deploys as a
// flagless thriftyd does (Immediate, ParallelLoad, 64 spare nodes, admission
// armed), and scaler arms the §5.1 scaler on top of default. What a Drive
// barrier costs is BenchmarkDomainsDrive's to measure (internal/sim).
//
// The rows share only the workload and the plan, which a replay reads and
// never writes. What they would share besides is the width, which
// runAtFirstCPU resets: Drive and the scaler's solver run GOMAXPROCS wide, so
// a row's -cpu 1 entry at -benchtime 1x would otherwise read width 2's
// figures (scaler: 40.6k allocs/op against 39.4k at width 1). Each iteration
// starts from a collected heap, as every pass of the repository benchmark
// does, so an iteration does not inherit the last one's collector target;
// gc/op counts the collections the replay itself ran.
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
	adm := DefaultAdmissionConfig()
	for _, c := range []struct {
		name string
		opts DeployOptions
	}{
		{"bare", DeployOptions{Immediate: true}},
		{"admission", DeployOptions{Immediate: true, Admission: &adm}},
		{"default", DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64, Admission: &adm}},
		{"scaler", DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64, Admission: &adm, Scaling: true}},
	} {
		runAtFirstCPU(b, c.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			queries, gcs := 0, uint32(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				sys, err := Deploy(w, plan, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.NumGC
				b.StartTimer()
				rep, err := sys.Replay(ReplayOptions{From: 0, To: w.Horizon})
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				gcs += ms.NumGC - before
				if err != nil {
					b.Fatal(err)
				}
				if rep.SubmitErrors != 0 || len(rep.Records) != rep.Submitted {
					b.Fatalf("submitted %d, %d errors, %d completed", rep.Submitted, rep.SubmitErrors, len(rep.Records))
				}
				queries += rep.Submitted
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
			b.ReportMetric(float64(gcs)/float64(b.N), "gc/op")
		})
	}
}

// runAtFirstCPU runs f as b's sub-benchmark name, starting at the first width
// of the -test.cpu list. The testing package reports a benchmark's first -cpu
// entry at -benchtime 1x from its sizing run, made at whatever GOMAXPROCS is
// current: the last -cpu value, left by the test loop or the benchmark
// before. Work that runs GOMAXPROCS wide would then read, under -cpu 1,2,
// width 2's figures in the entry labelled 1; started here, it reads the same
// alone as after the others.
func runAtFirstCPU(b *testing.B, name string, f func(b *testing.B)) {
	first, _, _ := strings.Cut(flag.Lookup("test.cpu").Value.String(), ",")
	if width, err := strconv.Atoi(first); err == nil {
		runtime.GOMAXPROCS(width)
	}
	b.Run(name, f)
}
