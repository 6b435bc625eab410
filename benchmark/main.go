// Command benchmark is the repository's benchmark: four workloads over one
// seeded traffic source, each printing every metric of BENCHMARK.json by name
// with its unit and failing when a correctness check fails. See README.md.
//
//	go run ./benchmark --workload serve-single --seed 1 --seconds 15 --trace 0
//	go run ./benchmark -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	// tr is non-nil on a traced run.
	tr *tracer
}

func (c runConfig) traced() bool { return c.tr != nil }

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what a workload hands back: values for metric names, how many
// samples stand behind each, the checks, and the failure count.
type result struct {
	values    map[string]float64
	samples   map[string]int
	checks    []check
	attempted int64
	failed    int64
	passes    int
	// passSeconds is the timed section of every untraced timed pass, in the
	// order they ran: the raw material of throughput, kept for the report.
	passSeconds []float64
}

func newResult() *result {
	return &result{values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output, the driver's contract.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one run as -out appends it: the summary plus everything needed
// to compare it with another run later.
type report struct {
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Scale    string   `json:"scale"`
	Trace    bool     `json:"trace"`
	Seconds  float64  `json:"seconds"`
	Clients  int      `json:"clients"`
	Passes   int      `json:"passes"`
	// PassSeconds is the timed section of each untraced timed pass.
	PassSeconds []float64 `json:"pass_seconds"`
	Checks      []check   `json:"checks"`
	summary
	Samples map[string]int `json:"samples"`
	// SelfSeconds is, on a traced run, each span name's summed self time:
	// its spans' durations minus what their child spans cover.
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
}

var runners = map[string]func(runConfig) (*result, error){
	"plan-4x500":   runPlan,
	"replay-7d":    runReplay,
	"serve-single": func(c runConfig) (*result, error) { return runServe(c, false) },
	"serve-mixed":  func(c runConfig) (*result, error) { return runServe(c, true) },
}

// execute runs one workload and assembles its report: exactly the metrics of
// the run's kind, each with its unit.
func execute(cfg runConfig) (*report, error) {
	run, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Env: stampEnv(), Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.sc.name,
		Trace: cfg.traced(), Seconds: cfg.seconds, Clients: 1, Passes: res.passes,
		PassSeconds: res.passSeconds,
		Checks:      res.checks,
		Samples:     make(map[string]int),
		summary: summary{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
			Metrics: make(map[string]metricValue)},
	}
	for _, m := range specsFor(cfg.traced()) {
		rep.Metrics[m.Name] = metricValue{Value: res.values[m.Name], Unit: m.Unit}
		rep.Samples[m.Name] = res.samples[m.Name]
	}
	if cfg.traced() {
		rep.SelfSeconds = make(map[string]float64)
		for name, d := range cfg.tr.selfTimes() {
			rep.SelfSeconds[name] = d.Seconds()
		}
	}
	return rep, nil
}

// print writes the human-readable lines and, last, the summary object.
func (rep *report) print(w io.Writer) error {
	e := rep.Env
	fmt.Fprintf(w, "# workload=%s seed=%d scale=%s trace=%t seconds=%g clients=%d passes=%d\n",
		rep.Workload, rep.Seed, rep.Scale, rep.Trace, rep.Seconds, rep.Clients, rep.Passes)
	fmt.Fprintf(w, "# commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		e.Commit, e.GoVersion, e.CPU, e.NProc, e.GOMAXPROCS)
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %-6s (n=%d)\n", name, m.Value, m.Unit, rep.Samples[name])
	}
	for _, name := range sortedKeys(rep.SelfSeconds) {
		fmt.Fprintf(w, "span %-36s self %12.6f s\n", name, rep.SelfSeconds[name])
	}
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %-40s %s\n", c.Name, status)
	}
	line, err := json.Marshal(rep.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendReport adds the report to path as one JSON line, so repeated runs
// with the same -out accumulate into the input of -compare.
func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload  = flag.String("workload", "", "plan-4x500, replay-7d, serve-single or serve-mixed")
		seed      = flag.Int64("seed", 1, "seed of the generated traffic")
		seconds   = flag.Float64("seconds", 15, "length of the measuring window")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		scaleName = flag.String("scale", "full", "full (what BENCHMARK.json measures) or tiny (smoke test)")
		out       = flag.String("out", "", "append the run's report to this file as one JSON line; a traced run also writes trace-<workload>.json beside it")
		compare   = flag.Bool("compare", false, "compare the reports in the two files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	sc, err := mustScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, sc: sc}
	if *trace != 0 {
		cfg.tr = newTracer()
	}
	start := time.Now()
	rep, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# total wall %.1fs\n", time.Since(start).Seconds())
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
		if cfg.traced() {
			path := filepath.Join(filepath.Dir(*out), "trace-"+cfg.workload+".json")
			if err := cfg.tr.dump(path); err != nil {
				fatal(err)
			}
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
