package workload

import (
	"testing"

	"repro/internal/queries"
	"repro/internal/tenant"
)

// BenchmarkGenerateWorkload is the generator's bench: the four populations
// the repository benchmark's plan-4x500 workload generates — 500 tenants over
// 7 days from a library of 10 sessions per class, seeds 40, 50, 60 and 70 —
// each built the way thrifty.GenerateWorkload builds it (step-1 library, then
// composition). Run it at -cpu 1,2: Compose builds activity GOMAXPROCS wide.
func BenchmarkGenerateWorkload(b *testing.B) {
	cat := queries.Default()
	tenants := 0
	for i := 0; i < b.N; i++ {
		for _, seed := range []int64{40, 50, 60, 70} {
			lib, err := BuildLibrary(cat, tenant.DefaultSizes, 10, seed)
			if err != nil {
				b.Fatal(err)
			}
			logs, err := ComposeVariant(lib, cat, 500, 0.8, tenant.DefaultSizes, VariantDefault, 7, seed+1)
			if err != nil {
				b.Fatal(err)
			}
			tenants += len(logs)
		}
	}
	b.ReportMetric(float64(tenants)/b.Elapsed().Seconds(), "tenants/s")
}
