// Package tenant models MPPDBaaS tenants: who requests how many nodes, how
// much data they hold, and how tenant populations are sampled (§7.1 step 2).
//
// A tenant requests an n-node MPPDB and holds 100 GB of TPC-H or TPC-DS data
// per requested node (2-node/200 GB up to 32-node/3.2 TB in the paper's
// evaluation). Tenant sizes follow a Zipf distribution over the available
// size classes — companies' database sizes are skewed [Gray et al.], and
// parallel database users size their clusters by data volume.
package tenant

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/queries"
)

// DataGBPerNode is the per-node data volume of every tenant (§7.1: "each
// node gets a 100GB data partition").
const DataGBPerNode = 100.0

// DefaultSizes are the node counts tenants may request in the paper's
// evaluation (§7.1 step 2).
var DefaultSizes = []int{2, 4, 8, 16, 32}

// Tenant is one MPPDBaaS customer.
type Tenant struct {
	// ID is the unique tenant identifier, e.g. "T0042".
	ID string
	// Nodes is the requested degree of parallelism nᵢ.
	Nodes int
	// DataGB is the tenant's total data volume.
	DataGB float64
	// Suite is the benchmark family the tenant's workload draws from.
	Suite queries.Suite
	// Users is the tenant's maximum number of autonomous users S ∈ [1,5].
	Users int
	// ZoneOffsetHours is the tenant's office-hour time-zone offset O.
	ZoneOffsetHours int
}

// Validate checks internal consistency.
func (t *Tenant) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("tenant: empty ID")
	}
	if t.Nodes < 1 {
		return fmt.Errorf("tenant %s: %d nodes", t.ID, t.Nodes)
	}
	if t.DataGB <= 0 {
		return fmt.Errorf("tenant %s: %.1f GB data", t.ID, t.DataGB)
	}
	if t.Users < 1 {
		return fmt.Errorf("tenant %s: %d users", t.ID, t.Users)
	}
	return nil
}

// ZoneOffsets are the time-zone offsets used for multi-tenant log
// composition (§7.1 step 2: Seattle, New York, São Paulo, London, Beijing,
// Japan, Sydney).
var ZoneOffsets = []int{0, 3, 5, 8, 16, 17, 19}

// SampleSizes draws n tenant sizes from the given size classes using the
// paper's Zipf CDF sampling: class rank k (1 = the smallest class) receives
// probability ∝ 1/k^θ, so small tenants dominate and a larger θ skews the
// population further toward them. θ must lie in (0, 1).
func SampleSizes(rng *rand.Rand, n int, theta float64, sizes []int) ([]int, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("tenant: no size classes")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("tenant: θ=%v outside (0,1)", theta)
	}
	// Build the Zipf CDF over ranks 1..len(sizes).
	weights := make([]float64, len(sizes))
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), theta)
		sum += weights[k]
	}
	cdf := make([]float64, len(sizes))
	acc := 0.0
	for k := range weights {
		acc += weights[k] / sum
		cdf[k] = acc
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		k := sort.SearchFloat64s(cdf, u)
		if k >= len(sizes) {
			k = len(sizes) - 1
		}
		out[i] = sizes[k]
	}
	return out, nil
}

// Population generates n tenants with Zipf-distributed sizes, random suites
// (TPC-H or TPC-DS with equal probability, §7.1), S ∈ [1,5] users, and
// time-zone offsets drawn uniformly from offsets. The result is ordered by
// descending node count (the tenant-driven design indexes tenants so that
// n₁ is the largest, §4.1).
func Population(rng *rand.Rand, n int, theta float64, sizes []int, offsets []int) ([]*Tenant, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("tenant: no time-zone offsets")
	}
	drawn, err := SampleSizes(rng, n, theta, sizes)
	if err != nil {
		return nil, err
	}
	out := make([]*Tenant, n)
	for i := range out {
		suite := queries.TPCH
		if rng.Intn(2) == 1 {
			suite = queries.TPCDS
		}
		out[i] = &Tenant{
			ID:              fmt.Sprintf("T%04d", i),
			Nodes:           drawn[i],
			DataGB:          DataGBPerNode * float64(drawn[i]),
			Suite:           suite,
			Users:           1 + rng.Intn(5),
			ZoneOffsetHours: offsets[rng.Intn(len(offsets))],
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Nodes > out[j].Nodes })
	return out, nil
}

// TotalNodes returns Σ nᵢ, the number of machine nodes the tenants would
// need without consolidation — the denominator of consolidation
// effectiveness.
func TotalNodes(ts []*Tenant) int {
	n := 0
	for _, t := range ts {
		n += t.Nodes
	}
	return n
}
