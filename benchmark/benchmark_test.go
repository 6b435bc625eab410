package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyConfig(workload string, trace bool) runConfig {
	cfg := runConfig{workload: workload, seed: 1, seconds: 0, sc: scales["tiny"]}
	if trace {
		cfg.tr = newTracer()
	}
	return cfg
}

// TestTinyWorkloads runs every workload, traced and untraced, at the tiny
// scale: the benchmark keeps compiling, its correctness checks stay alive,
// and each run emits exactly the metrics BENCHMARK.json names for its kind.
func TestTinyWorkloads(t *testing.T) {
	for _, wl := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			rep, err := execute(tinyConfig(wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, trace, err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s trace=%t: check %q failed: %s", wl.Name, trace, c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			specs := specsFor(trace)
			if len(rep.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics emitted, want %d", wl.Name, trace, len(rep.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", wl.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s: metric %s has unit %q, want %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v", wl.Name, m.Name, got.Value)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, got.Value)
				}
			}
			var buf bytes.Buffer
			if err := rep.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", wl.Name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line has keys %v, want exactly correct, attempted, failed, metrics", wl.Name, last)
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json in step and
// inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("workloads: %d vs %d", len(file.Workloads), len(workloadSpecs))
	}
	seen := make(map[string]bool)
	for i, wl := range workloadSpecs {
		if file.Workloads[i] != wl {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %+v", i, file.Workloads[i], wl)
		}
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
		if runners[wl.Name] == nil {
			t.Errorf("workload %s has no runner", wl.Name)
		}
		if !nameRE.MatchString(wl.Name) || seen[wl.Name] {
			t.Errorf("workload name %q is malformed or repeated", wl.Name)
		}
		seen[wl.Name] = true
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {50000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]int32, 1000)
	for i := range s {
		s[i] = int32(i + 1)
	}
	if got := percentileSorted(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentileSorted(s, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := relSpread(xs); got != 1 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m       metricSpec
		changed []float64
		want    string
	}{
		{lower, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, []float64{115, 114, 116, 115, 115}, "regression"},
		{lower, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, []float64{85, 84, 86, 85, 85}, "regression"},
		{higher, []float64{120, 119, 121, 120, 120}, "ok"},
		{lower, []float64{80, 130, 100, 140, 90}, "unresolved"},
	} {
		if _, got := verdict(c.m, base, c.changed); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Name, c.changed, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "write", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "write", ID: 2, Parent: 0, Start: 50, End: 90},
		{Name: "inner", ID: 3, Parent: 2, Start: 60, End: 70},
	}}
	self := tr.selfTimes()
	if self["pass"] != 30 || self["write"] != 60 || self["inner"] != 10 {
		t.Errorf("self times %v, want pass 30, write 60, inner 10", self)
	}
	var none *tracer
	if id := none.begin("x", -1, 0, 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(-1)
}

// TestGeneratorMatchesProgram checks the load generator against the program:
// its own expansion of the sessions is the program's materialised event list
// (same events, same order), and the serve path accepts exactly the queries
// replay submits for the same seed.
func TestGeneratorMatchesProgram(t *testing.T) {
	sc := scales["tiny"]
	env, err := setupServe(1, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.MaterializeAll(env.w.Logs, 0, env.w.Horizon)
	deployed := make(map[string]bool)
	for _, g := range env.plan.Groups {
		for _, id := range g.TenantIDs {
			deployed[id] = true
		}
	}
	i := 0
	for _, ev := range want {
		if !deployed[ev.Tenant] {
			continue
		}
		if i >= len(env.events) {
			t.Fatalf("generator has %d events, program more", len(env.events))
		}
		got := env.events[i]
		if got.at != ev.At || got.tenant != ev.Tenant || got.class != ev.ClassID || got.sla != ev.SLATarget {
			t.Fatalf("event %d: generator %+v, program %+v", i, got, ev)
		}
		i++
	}
	if i != len(env.events) {
		t.Fatalf("generator has %d events, program %d", len(env.events), i)
	}

	served, err := env.pass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	renv, err := setupReplay(1, sc)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := renv.pass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served.accepted != replayed.submitted || served.completed != replayed.completed {
		t.Errorf("serve accepted %d and completed %d, replay submitted %d and completed %d",
			served.accepted, served.completed, replayed.submitted, replayed.completed)
	}
}

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	if got := gitCommit(dir); got != "unknown" {
		t.Errorf("no repository: %q", got)
	}
	git := filepath.Join(dir, ".git")
	if err := os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(git, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs\nabc123 refs/heads/main\n")
	if got := gitCommit(dir); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	write(filepath.Join("refs", "heads", "main"), "def456\n")
	if got := gitCommit(dir); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
	write("HEAD", "0123abcd\n")
	if got := gitCommit(dir); got != "0123abcd" {
		t.Errorf("detached head: %q", got)
	}
}

// TestCompareFiles appends reports the way -out does and reads them back
// through -compare.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughputs ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range throughputs {
			rep := &report{Workload: "replay-7d", summary: summary{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"throughput": {Value: v, Unit: "1/s"}}}}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 100, 101, 99, 100)
	slow := write("slow.jsonl", 60, 61, 59, 60)
	var buf bytes.Buffer
	if err := compareFiles(&buf, base, slow); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "replay-7d") || !strings.Contains(out, "throughput") ||
		!strings.Contains(out, "0.6000 of 100") || !strings.Contains(out, "regression") {
		t.Errorf("compare output:\n%s", out)
	}
	if err := compareFiles(&buf, base, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing with a missing file succeeded")
	}
}
