package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric or span dimension (e.g. group="TG-0000").
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters normally come from Registry.Counter so they are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (negative n panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-boundary distribution. Boundaries are upper bounds in
// ascending order; an implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, non-cumulative
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// The first bound >= v (none for NaN): sort.SearchFloat64s without a
	// closure call per probe.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations, the sum over the buckets.
func (h *Histogram) Count() (n int64) {
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefaultLatencyBoundaries covers analytical-query latencies from 100 ms to
// ~2 h, roughly logarithmic (seconds).
var DefaultLatencyBoundaries = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 7200,
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, a sorted label set, and exactly
// one of the three instruments.
type metric struct {
	name   string
	key    string // seriesKey(name, labels)
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	// heads are the series' sample lines up to their value, rendered by the
	// first read after the series registered: name{labels} for a counter or
	// gauge; a histogram's buckets (with le), then _sum and _count.
	heads []string
}

// Registry holds named metrics. Get-or-create is serialized; the returned
// instruments update lock-free, so hot paths pay one map lookup plus an
// atomic op. Registration with the same name and labels returns the same
// instrument; re-registering a name under a different kind panics (it is a
// programming error, like registering two flags with one name).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	// sorted is every series by (name, labels), heads rendered; nil after a
	// registration until the next read. A published slice is never written.
	sorted []*metric
	// buf is the scrape buffer; a scrape takes it, and a concurrent one
	// grows its own.
	buf atomic.Pointer[[]byte]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// pairs converts variadic "k1, v1, k2, v2" strings into a sorted label set.
func pairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// appendLabels appends a label set, plus optional extras like le, as
// {k="v",...}, or nothing when there are none. A value is escaped as the
// text format 0.0.4 escapes it: backslash, double quote and newline only.
func appendLabels(b []byte, labels []Label, extra ...Label) []byte {
	if len(labels)+len(extra) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range append(labels[:len(labels):len(labels)], extra...) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, l.Key...), '=', '"'), labelEscaper.Replace(l.Value)...)
		b = append(b, '"')
	}
	return append(b, '}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// seriesKey is the registry map key: name plus the canonical label encoding.
func seriesKey(name string, labels []Label) string {
	var buf [128]byte
	return string(appendLabels(append(buf[:0], name...), labels))
}

// lookup returns the series, creating it with mk when absent.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, mk func(*metric)) *metric {
	key := seriesKey(name, labels)
	r.mu.RLock()
	m := r.metrics[key]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		if m = r.metrics[key]; m == nil {
			m = &metric{name: name, key: key, labels: labels, kind: kind}
			mk(m)
			r.metrics[key] = m
			r.sorted = nil
		}
		r.mu.Unlock()
	}
	if m.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", key, m.kind, kind))
	}
	return m
}

// Counter returns the counter series, creating it if needed. kv is a flat
// key, value, key, value... label list.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.lookup(name, pairs(kv), kindCounter, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge returns the gauge series, creating it if needed.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.lookup(name, pairs(kv), kindGauge, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the histogram series, creating it if needed. bounds is
// only consulted on first creation; nil uses DefaultLatencyBoundaries.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	return r.lookup(name, pairs(kv), kindHistogram, func(m *metric) {
		if bounds == nil {
			bounds = DefaultLatencyBoundaries
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s boundaries not ascending: %v", name, bounds))
			}
		}
		m.h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	}).h
}

// MetricValue is one series in a snapshot.
type MetricValue struct {
	Name   string
	Labels []Label
	Kind   string
	// Value holds the counter or gauge reading.
	Value float64
	// Histogram readings (Kind == "histogram" only). Buckets are
	// non-cumulative and aligned with Bounds; the final extra entry is the
	// +Inf overflow.
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// series returns every series in (name, labels) order, each with its heads.
// Only the first read after a registration sorts and renders.
func (r *Registry) series() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		ms := make([]*metric, 0, len(r.metrics))
		for _, m := range r.metrics {
			if m.heads == nil {
				m.render()
			}
			ms = append(ms, m)
		}
		slices.SortFunc(ms, func(a, b *metric) int {
			return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.key, b.key))
		})
		r.sorted = ms
	}
	return r.sorted
}

// render builds the series' heads.
func (m *metric) render() {
	head := func(suffix string, extra ...Label) string {
		return string(append(appendLabels(append([]byte(m.name), suffix...), m.labels, extra...), ' '))
	}
	if m.kind != kindHistogram {
		m.heads = []string{head("")}
		return
	}
	for _, b := range m.h.bounds {
		m.heads = append(m.heads, head("_bucket", Label{"le", formatFloat(b)}))
	}
	m.heads = append(m.heads, head("_bucket", Label{"le", "+Inf"}), head("_sum"), head("_count"))
}

// Snapshot returns a consistent-enough point-in-time view of every series,
// totally ordered by (name, labels) so encodings are deterministic.
// Individual readings are atomic; the set as a whole is not a transaction —
// the usual scrape semantics.
func (r *Registry) Snapshot() []MetricValue {
	ms := r.series()
	out := make([]MetricValue, 0, len(ms))
	for _, m := range ms {
		mv := MetricValue{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			mv.Value = float64(m.c.Value())
		case kindGauge:
			mv.Value = m.g.Value()
		case kindHistogram:
			mv.Bounds = m.h.bounds
			mv.Buckets = make([]int64, len(m.h.buckets))
			for i := range m.h.buckets {
				mv.Buckets[i] = m.h.buckets[i].Load()
				mv.Count += mv.Buckets[i]
			}
			mv.Sum = m.h.Sum()
		}
		out = append(out, mv)
	}
	return out
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4). Series are grouped under one # TYPE line per
// metric name, in sorted order. Each line is its pre-rendered head and the
// value, floats in their shortest round-trip form ('g'), appended into one
// reused buffer that goes out in one Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := r.buf.Swap(nil)
	if p == nil {
		p = new([]byte)
	}
	b, last := (*p)[:0], ""
	for _, m := range r.series() {
		if m.name != last {
			b = append(append(append(b, "# TYPE "...), m.name...), ' ')
			b = append(append(b, m.kind.String()...), '\n')
			last = m.name
		}
		switch m.kind {
		case kindCounter:
			b = strconv.AppendFloat(append(b, m.heads[0]...), float64(m.c.Value()), 'g', -1, 64)
		case kindGauge:
			b = strconv.AppendFloat(append(b, m.heads[0]...), m.g.Value(), 'g', -1, 64)
		case kindHistogram:
			cum := int64(0)
			for i := range m.h.buckets {
				cum += m.h.buckets[i].Load()
				b = append(strconv.AppendInt(append(b, m.heads[i]...), cum, 10), '\n')
			}
			n := len(m.h.buckets)
			b = append(strconv.AppendFloat(append(b, m.heads[n]...), m.h.Sum(), 'g', -1, 64), '\n')
			b = strconv.AppendInt(append(b, m.heads[n+1]...), cum, 10)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	*p = b
	r.buf.Store(p)
	return err
}

// formatFloat renders floats the way Prometheus clients do: the shortest
// round-trip representation, with an exponent below 1e-4 and from 1e6 on.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
