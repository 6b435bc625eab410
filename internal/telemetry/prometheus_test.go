package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refSeries is one series of the naive registry the Prometheus encoder is
// checked against: plain values, updated in program order.
type refSeries struct {
	name    string
	labels  []Label
	kind    metricKind
	count   int64   // counter
	value   float64 // gauge
	bounds  []float64
	buckets []int64
	sum     float64
}

// refQuote quotes a label value as the text format 0.0.4 says: backslash,
// double quote and newline are the only escapes.
func refQuote(v string) string { return `"` + refEscaper.Replace(v) + `"` }

var refEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// refLabels is the encoder's old promLabels with its quoting a parameter.
func refLabels(quote func(string) string, labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + "=" + quote(l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// refPrometheus is the encoder WritePrometheus replaced: the series sorted
// at every scrape, a label block built and a Fprintf for each line. parent
// keeps its two defects — series ordered by their encoded key, so a name
// that is a prefix of another can split its family into two # TYPE blocks,
// and label values quoted by strconv.Quote; otherwise the series go by
// (name, labels) and values are quoted by refQuote.
func refPrometheus(series []*refSeries, parent bool) string {
	quote := refQuote
	if parent {
		quote = strconv.Quote
	}
	sorted := append([]*refSeries(nil), series...)
	key := make(map[*refSeries]string, len(series))
	for _, s := range series {
		key[s] = s.name + refLabels(quote, s.labels)
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if !parent && a.name != b.name {
			return a.name < b.name
		}
		return key[a] < key[b]
	})
	var w strings.Builder
	last := ""
	for _, s := range sorted {
		if s.name != last {
			fmt.Fprintf(&w, "# TYPE %s %s\n", s.name, s.kind)
			last = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&w, "%s%s %s\n", s.name, refLabels(quote, s.labels), formatFloat(float64(s.count)))
		case kindGauge:
			fmt.Fprintf(&w, "%s%s %s\n", s.name, refLabels(quote, s.labels), formatFloat(s.value))
		case kindHistogram:
			cum := int64(0)
			for i, n := range s.buckets {
				cum += n
				le := "+Inf"
				if i < len(s.bounds) {
					le = formatFloat(s.bounds[i])
				}
				fmt.Fprintf(&w, "%s_bucket%s %d\n", s.name, refLabels(quote, s.labels, Label{"le", le}), cum)
			}
			fmt.Fprintf(&w, "%s_sum%s %s\n", s.name, refLabels(quote, s.labels), formatFloat(s.sum))
			fmt.Fprintf(&w, "%s_count%s %d\n", s.name, refLabels(quote, s.labels), cum)
		}
	}
	return w.String()
}

// promFamilies are the names the fuzz registers, each under one kind: "a" is
// a prefix of the next three and "h" of "h_x", the cases that split a family
// when series are ordered by their encoded key.
var promFamilies = []struct {
	name string
	kind metricKind
}{
	{"a", kindCounter}, {"a_b", kindCounter}, {"a:b", kindGauge}, {"ab", kindGauge},
	{"h", kindHistogram}, {"h_x", kindHistogram}, {"z_total", kindCounter},
}

// promLabelSets are flat key, value lists, not all in key order, with values
// that need escaping (tab, NUL, newline, quote, backslash, invalid UTF-8).
var promLabelSets = [][]string{
	nil, {"g", "1"}, {"g", "2"}, {"z", "x", "g", "1"}, {"g", "tab\there"}, {"g", "nul\x00"},
	{"g", "new\nline"}, {"g", `q"b\`}, {"g", "1", "a", "é"}, {"g", "\xff"},
}

var promBounds = [][]float64{nil, {1, 10}, {-1, 0, 1.5}, {1e-5, 1e6, 1e21}}

var promValues = []float64{
	0, 0.1, 0.9995, -2.5, 1e6, 1234567, 1e21, 1e-5, 7200, math.NaN(), math.Inf(1), math.Inf(-1),
}

// promDiff applies ops to a registry and to the naive one and compares their
// scrapes. An op is three bytes: what to do (counter add, gauge set, gauge
// add, histogram observe, scrape), a series (family and label set) and an
// argument.
func promDiff(t *testing.T, data []byte) {
	t.Helper()
	r := NewRegistry()
	ref := map[string]*refSeries{}
	get := func(fam, set int, bounds []float64) *refSeries {
		labels := pairs(promLabelSets[set])
		k := promFamilies[fam].name + refLabels(refQuote, labels)
		if s := ref[k]; s != nil {
			return s
		}
		s := &refSeries{name: promFamilies[fam].name, labels: labels, kind: promFamilies[fam].kind}
		if s.kind == kindHistogram {
			if bounds == nil {
				bounds = DefaultLatencyBoundaries
			}
			s.bounds, s.buckets = bounds, make([]int64, len(bounds)+1)
		}
		ref[k] = s
		return s
	}
	scrape := func(at int) {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		series := make([]*refSeries, 0, len(ref))
		for _, s := range ref {
			series = append(series, s)
		}
		if want := refPrometheus(series, false); buf.String() != want {
			t.Fatalf("op %d: WritePrometheus\n%q\nwant\n%q", at, buf.String(), want)
		}
		// Without escaped label values and with no name a prefix of
		// another, the parent's encoder printed the same bytes.
		plain := true
		for _, s := range series {
			for _, l := range s.labels {
				plain = plain && strconv.Quote(l.Value) == refQuote(l.Value)
			}
			for _, o := range series {
				plain = plain && (o.name == s.name || !strings.HasPrefix(o.name, s.name))
			}
		}
		if plain && buf.String() != refPrometheus(series, true) {
			t.Fatalf("op %d: WritePrometheus differs from the parent encoder on\n%s", at, buf.String())
		}
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, sel, arg := data[i]%5, int(data[i+1]), int(data[i+2])
		fam, set := sel%len(promFamilies), sel/len(promFamilies)%len(promLabelSets)
		kv, kind := promLabelSets[set], promFamilies[fam].kind
		name := promFamilies[fam].name
		v := promValues[arg%len(promValues)]
		switch {
		case op == 4:
			scrape(i)
		case kind == kindCounter:
			n := int64(arg) << (arg % 24)
			r.Counter(name, kv...).Add(n)
			get(fam, set, nil).count += n
		case kind == kindGauge && op%2 == 0:
			r.Gauge(name, kv...).Set(v)
			get(fam, set, nil).value = v
		case kind == kindGauge:
			r.Gauge(name, kv...).Add(v)
			get(fam, set, nil).value += v
		default:
			bounds := promBounds[arg%len(promBounds)]
			r.Histogram(name, bounds, kv...).Observe(v)
			s := get(fam, set, bounds)
			s.buckets[sort.Search(len(s.bounds), func(j int) bool { return s.bounds[j] >= v })]++
			s.sum += v
		}
	}
	scrape(len(data))
}

func FuzzPrometheusText(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 0, 0, 0, 7, 3, 4, 0, 0, 0, 1, 200, 4, 0, 0})
	f.Add([]byte{3, 4, 1, 3, 11, 9, 3, 4, 2, 1, 2, 10, 2, 3, 11, 4, 0, 0, 3, 4, 5})
	f.Add([]byte{0, 28, 40, 0, 35, 3, 1, 44, 4, 1, 58, 0, 0, 63, 255, 4, 0, 0, 0, 6, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		promDiff(t, data)
	})
}

// TestPrometheusMatchesReference runs 300 random op streams through promDiff.
func TestPrometheusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 3*(1+rng.Intn(120)))
		rng.Read(data)
		promDiff(t, data)
	}
}

// TestPrometheusFamilyNotSplit: "a" sorts before "a{", but "a_b" sorts
// between the two encoded keys. A family is still one # TYPE block.
func TestPrometheusFamilyNotSplit(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a", "g", "1").Inc()
	r.Counter("a_b").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a counter\na 1\na{g=\"1\"} 1\n# TYPE a_b counter\na_b 1\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus:\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestPrometheusLabelEscapes: backslash, double quote and newline are the
// text format's only escapes; a tab or a NUL goes out as it is.
func TestPrometheusLabelEscapes(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "v", "tab\there").Set(1)
	r.Gauge("g", "v", "nul\x00").Set(2)
	r.Gauge("g", "v", "new\nline \"q\" \\").Set(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE g gauge\n" +
		"g{v=\"new\\nline \\\"q\\\" \\\\\"} 3\n" +
		"g{v=\"nul\x00\"} 2\n" +
		"g{v=\"tab\there\"} 1\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus:\n%q\nwant\n%q", buf.String(), want)
	}
}

// servingRegistry registers the series a serve deployment of groups
// tenant-groups with perGroup MPPDBs each registers: each group's router,
// monitor and runtime series, each MPPDB's two latency histograms, gauge and
// counter. Every series has moved.
func servingRegistry(groups, perGroup int) *Registry {
	r := NewRegistry()
	for g := 0; g < groups; g++ {
		id := fmt.Sprintf("TG-%04d", g)
		for _, name := range []string{"thrifty_router_routed_total", "thrifty_router_overflow_total",
			"thrifty_queries_completed_total", "thrifty_queries_sla_missed_total",
			"thrifty_query_retried_total", "thrifty_query_timeout_total"} {
			r.Counter(name, "group", id).Add(int64(g) * 1e5)
		}
		r.Gauge("thrifty_router_inflight", "group", id).Set(float64(g))
		r.Gauge("thrifty_group_active_tenants", "group", id).Set(15)
		r.Histogram("thrifty_query_retries", []float64{0, 1, 2, 3, 5, 8}, "group", id).Observe(0)
		for i := 0; i < perGroup; i++ {
			db := fmt.Sprintf("%s-M%d", id, i)
			for j, name := range []string{"thrifty_mppdb_service_seconds", "thrifty_mppdb_sojourn_seconds"} {
				h := r.Histogram(name, nil, "mppdb", db)
				for k := 0; k < 20; k++ {
					h.Observe(float64(k*k+j) / 3)
				}
			}
			r.Gauge("thrifty_mppdb_running", "mppdb", db).Set(2)
			r.Counter("thrifty_mppdb_completed_total", "mppdb", db).Add(1234567)
		}
	}
	return r
}

// TestWritePrometheusAllocs: once a series set has been scraped, scraping it
// again allocates nothing per series — at most one object, whatever the
// series count.
func TestWritePrometheusAllocs(t *testing.T) {
	for _, groups := range []int{1, 13, 100} {
		r := servingRegistry(groups, 3)
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { _ = r.WritePrometheus(io.Discard) }); a > 1 {
			t.Errorf("%d groups: %v allocations per scrape, want ≤ 1", groups, a)
		}
	}
}

// BenchmarkWritePrometheus scrapes a registry shaped like the serve
// deployment's: 13 groups of three MPPDBs, ≈ 1,750 lines.
func BenchmarkWritePrometheus(b *testing.B) {
	r := servingRegistry(13, 3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		b.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.WritePrometheus(io.Discard)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
	b.ReportMetric(float64(lines), "lines")
}
