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
// never writes. What they would share besides is the width: at -benchtime
// 1x the testing package reports a row's first -cpu entry from the row's
// sizing run, made at whatever GOMAXPROCS is current — the last -cpu value,
// left by the test loop or the row before. Drive and the scaler's solver run
// that wide, so under -cpu 1,2 the entry labelled 1 would read width 2's
// figures (scaler: 40.6k allocs/op against 39.4k at width 1). Each row
// therefore starts at the first -cpu width, and reads the same alone as
// after the others.
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
		if width := firstCPU(); width > 0 {
			runtime.GOMAXPROCS(width)
		}
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

// firstCPU is the first width of the -test.cpu list, or 0 when the flag is
// unset (the list is then the process's own GOMAXPROCS, which no row moves).
func firstCPU() int {
	f := flag.Lookup("test.cpu")
	if f == nil {
		return 0
	}
	first, _, _ := strings.Cut(f.Value.String(), ",")
	width, _ := strconv.Atoi(first)
	return width
}
