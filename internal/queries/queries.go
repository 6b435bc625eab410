// Package queries is the analytical query catalog used by the Thrifty
// testbed: the 22 TPC-H queries and a TPC-DS subset, each with a calibrated
// latency profile.
//
// The paper's evaluation (§7.1) runs TPC-H and TPC-DS query streams against a
// commercial MPPDB; since the consolidation machinery only ever observes
// query durations and arrival times, the substrate we need is a latency
// model, not a SQL executor. Each query class carries a four-component
// profile from which its isolated latency on an n-node MPPDB holding D GB is
//
//	L(n, D) = Fixed + Serial + Scan·D/n + Shuffle·D·(n−1)/n² + Coord·(n−1)
//
// Fixed is parse/plan/launch overhead, Serial the non-parallelizable tail
// (final aggregation, top-k merge), Scan the per-GB parallel scan+compute
// work, Shuffle the per-GB repartitioning cost (each node ships (n−1)/n of
// its D/n-GB partition), and Coord the per-extra-node coordination cost that
// makes join-heavy queries stop scaling (the paper's TPC-H Q19, Fig 1.1c).
// Profiles are calibrated so Q1 scales out almost linearly (Fig 1.1a) while
// Q19 plateaus, and so a mixed stream on an n-node tenant (100 GB per node,
// §7.1) yields the office-hour activity levels (≈34% busy sessions, ≈11.9%
// average active tenant ratio) the paper's consolidation results rest on.
package queries

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Suite identifies a benchmark family.
type Suite int

const (
	// TPCH is the TPC-H decision-support benchmark (22 queries).
	TPCH Suite = iota
	// TPCDS is the TPC-DS benchmark (a representative 24-query subset).
	TPCDS
)

// String returns the conventional suite name.
func (s Suite) String() string {
	switch s {
	case TPCH:
		return "TPC-H"
	case TPCDS:
		return "TPC-DS"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Class describes one query template and its latency profile.
type Class struct {
	// ID is the canonical identifier, e.g. "TPCH-Q1".
	ID string
	// Suite is the benchmark the query belongs to.
	Suite Suite
	// Number is the query number within the suite.
	Number int
	// SQL is representative (abbreviated) SQL text for the template.
	SQL string

	// Latency profile. All values are seconds (per GB where noted).
	FixedSec  float64 // parse/plan/launch overhead
	SerialSec float64 // non-parallelizable tail
	ScanSecGB float64 // parallel scan+compute per GB
	ShufSecGB float64 // repartition cost per GB shipped
	CoordSec  float64 // coordination cost per additional node
}

// Latency returns the isolated (no concurrent queries) execution latency of
// the class against dataGB of data spread over nodes machine nodes.
func (c *Class) Latency(dataGB float64, nodes int) time.Duration {
	if nodes < 1 {
		nodes = 1
	}
	n := float64(nodes)
	sec := c.FixedSec + c.SerialSec + c.ScanSecGB*dataGB/n
	if nodes > 1 {
		sec += c.ShufSecGB * dataGB * (n - 1) / (n * n)
		sec += c.CoordSec * (n - 1)
	}
	return time.Duration(sec * float64(time.Second))
}

// Speedup returns L(1,D)/L(n,D), the scale-out factor relative to a single
// node for the same dataset.
func (c *Class) Speedup(dataGB float64, nodes int) float64 {
	one := c.Latency(dataGB, 1).Seconds()
	at := c.Latency(dataGB, nodes).Seconds()
	if at <= 0 {
		return 0
	}
	return one / at
}

// LinearScaleOut reports whether the class scales out essentially linearly
// (requirement R4 distinguishes linear from non-linear queries). Queries are
// probed at the paper's Fig 1.1 operating point — a fixed 100 GB (TPC-H
// SF100) dataset across 8 nodes — and called linear when the 8-node speedup
// exceeds 5×.
func (c *Class) LinearScaleOut() bool {
	return c.Speedup(100, 8) > 5.0
}

// Catalog is an immutable set of query classes with lookup and sampling
// helpers.
type Catalog struct {
	classes []*Class
	byID    map[string]*Class
	suites  map[Suite][]*Class // each suite's classes ordered by number
}

// NewCatalog builds a catalog from the given classes. IDs must be unique.
func NewCatalog(classes []*Class) (*Catalog, error) {
	c := &Catalog{byID: make(map[string]*Class, len(classes)), suites: make(map[Suite][]*Class)}
	for _, cl := range classes {
		if cl.ID == "" {
			return nil, fmt.Errorf("queries: class with empty ID")
		}
		if _, dup := c.byID[cl.ID]; dup {
			return nil, fmt.Errorf("queries: duplicate class %q", cl.ID)
		}
		c.byID[cl.ID] = cl
		c.classes = append(c.classes, cl)
	}
	slices.SortFunc(c.classes, func(a, b *Class) int { return cmp.Compare(a.ID, b.ID) })
	for _, cl := range c.classes {
		c.suites[cl.Suite] = append(c.suites[cl.Suite], cl)
	}
	for _, set := range c.suites { // equal numbers stay in ID order
		slices.SortStableFunc(set, func(a, b *Class) int { return cmp.Compare(a.Number, b.Number) })
	}
	return c, nil
}

// Default returns the full built-in catalog (TPC-H + TPC-DS).
func Default() *Catalog {
	all := append(append([]*Class(nil), tpchClasses...), tpcdsClasses...)
	c, err := NewCatalog(all)
	if err != nil {
		panic(err) // built-in data; unreachable unless the tables are broken
	}
	return c
}

// Len returns the number of classes.
func (c *Catalog) Len() int { return len(c.classes) }

// Classes returns all classes ordered by ID.
func (c *Catalog) Classes() []*Class { return c.classes }

// ByID looks a class up by identifier.
func (c *Catalog) ByID(id string) (*Class, bool) {
	cl, ok := c.byID[id]
	return cl, ok
}

// Suite returns the classes belonging to one suite, ordered by number.
func (c *Catalog) Suite(s Suite) []*Class { return slices.Clone(c.suites[s]) }

// Random draws a uniformly random query from suite s (the paper's users
// submit "a random TPC-H/DS query", §7.1 step 1, uniform distribution).
func (c *Catalog) Random(rng *rand.Rand, s Suite) *Class {
	set := c.suites[s]
	if len(set) == 0 {
		return nil
	}
	return set[rng.Intn(len(set))]
}
