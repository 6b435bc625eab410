package telemetry

import (
	"bytes"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "group", "TG-0")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d", got)
	}
	if r.Counter("requests_total", "group", "TG-0") != c {
		t.Error("re-registration returned a new counter")
	}
	if r.Counter("requests_total", "group", "TG-1") == c {
		t.Error("different labels shared a series")
	}

	g := r.Gauge("inflight")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v", got)
	}

	h := r.Histogram("latency_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5060.5 {
		t.Errorf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	var hv *MetricValue
	for i := range snap {
		if snap[i].Name == "latency_seconds" {
			hv = &snap[i]
		}
	}
	if hv == nil {
		t.Fatal("histogram missing from snapshot")
	}
	want := []int64{1, 2, 1, 1} // ≤1, ≤10, ≤100, +Inf
	for i, w := range want {
		if hv.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hv.Buckets[i], w)
		}
	}
}

// TestHistogramBucketSearch: Observe's own search picks the bucket
// sort.SearchFloat64s picked — on, beside and beyond every default boundary —
// and the snapshot's count is the sum of its buckets.
func TestHistogramBucketSearch(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", nil)
	want := make([]int64, len(DefaultLatencyBoundaries)+1)
	vs := []float64{math.Inf(-1), -1, 0, math.Inf(1), math.NaN()}
	for _, b := range DefaultLatencyBoundaries {
		vs = append(vs, math.Nextafter(b, 0), b, math.Nextafter(b, math.Inf(1)))
	}
	for _, v := range vs {
		h.Observe(v)
		want[sort.SearchFloat64s(DefaultLatencyBoundaries, v)]++
	}
	mv := r.Snapshot()[0]
	for i := range want {
		if mv.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, mv.Buckets[i], want[i])
		}
	}
	if n := int64(len(vs)); h.Count() != n || mv.Count != n {
		t.Errorf("Count() = %d, snapshot count %d, want %d", h.Count(), mv.Count, n)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

// TestPrometheusText checks the exposition output is well-formed 0.0.4 text:
// TYPE headers, sample lines that parse, cumulative histogram buckets.
func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("thrifty_routed_total", "group", "TG-0").Add(7)
	r.Gauge("thrifty_rt_ttp", "group", "TG-0").Set(0.9995)
	h := r.Histogram("thrifty_latency_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_+]+="[^"]*")*\})? -?[0-9.+eEInf]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !typeLine.MatchString(line) {
				t.Errorf("bad TYPE line %q", line)
			}
		} else if !sample.MatchString(line) {
			t.Errorf("bad sample line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE thrifty_routed_total counter",
		`thrifty_routed_total{group="TG-0"} 7`,
		`thrifty_rt_ttp{group="TG-0"} 0.9995`,
		`thrifty_latency_seconds_bucket{le="1"} 1`,
		`thrifty_latency_seconds_bucket{le="10"} 1`,
		`thrifty_latency_seconds_bucket{le="+Inf"} 2`,
		"thrifty_latency_seconds_sum 20.5",
		"thrifty_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// creating series, updating all three instrument kinds — while readers take
// snapshots and Prometheus encodings. Run under -race this is the
// subsystem's thread-safety proof (ISSUE acceptance: ≥ 8 writers).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const writers = 12
	const perWriter = 2000
	groups := []string{"TG-0", "TG-1", "TG-2"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers run for the whole write phase.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Snapshot()
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var writeWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writeWG.Add(1)
		go func(i int) {
			defer writeWG.Done()
			g := groups[i%len(groups)]
			for j := 0; j < perWriter; j++ {
				r.Counter("hammer_total", "group", g).Inc()
				r.Gauge("hammer_inflight", "group", g).Add(1)
				r.Histogram("hammer_seconds", nil, "group", g).Observe(float64(j % 50))
				r.Gauge("hammer_inflight", "group", g).Add(-1)
				// Each writer registers 50 series of its own while the
				// readers scrape the sorted slice.
				r.Counter("hammer_series_total", "writer", strconv.Itoa(i), "j", strconv.Itoa(j%50)).Inc()
			}
		}(i)
	}
	writeWG.Wait()
	close(stop)
	wg.Wait()

	var total int64
	for _, g := range groups {
		total += r.Counter("hammer_total", "group", g).Value()
	}
	if want := int64(writers * perWriter); total != want {
		t.Errorf("counter total = %d, want %d", total, want)
	}
	if n := len(r.Snapshot()); n != 3*len(groups)+writers*50 {
		t.Errorf("%d series, want %d", n, 3*len(groups)+writers*50)
	}
	for _, g := range groups {
		if v := r.Gauge("hammer_inflight", "group", g).Value(); v != 0 {
			t.Errorf("gauge %s = %v, want 0", g, v)
		}
		h := r.Histogram("hammer_seconds", nil, "group", g)
		if h.Count() == 0 {
			t.Errorf("histogram %s empty", g)
		}
	}
}
