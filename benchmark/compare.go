package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readReports loads the untraced reports -out appended to path, grouped by
// workload.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]report)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], rep)
		}
	}
	return out, sc.Err()
}

// verdict judges one metric of one workload between a base and a changed
// set of runs: "regression" when the changed median is worse than the base's
// by more than the bound, "unresolved" when either side's inter-quartile
// spread is wider than the bound (so the runs cannot tell), otherwise "ok".
func verdict(m metricSpec, base, changed []float64) (ratio float64, v string) {
	bm, cm := median(base), median(changed)
	if bm != 0 {
		ratio = cm / bm
	}
	worse := (cm - bm) / bm
	if m.Better == "higher" {
		worse = (bm - cm) / bm
	}
	switch {
	case relSpread(base) > m.Bound || relSpread(changed) > m.Bound:
		return ratio, "unresolved"
	case worse > m.Bound:
		return ratio, "regression"
	default:
		return ratio, "ok"
	}
}

// compareFiles prints one row per workload and end-to-end metric: both
// sides' median and quartiles, the ratio with its base, the bound, and the
// verdict.
func compareFiles(w io.Writer, basePath, changedPath string) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	changed, err := readReports(changedPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tchanged median [q1, q3] (n)\tchanged/base\tbound\tverdict")
	values := func(reps []report, name string) []float64 {
		var out []float64
		for i := range reps {
			if m, ok := reps[i].Metrics[name]; ok && reps[i].Correct {
				out = append(out, m.Value)
			}
		}
		return out
	}
	cell := func(xs []float64) string {
		q1, _, q3 := quartiles(xs)
		return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", median(xs), q1, q3, len(xs))
	}
	rows := 0
	for _, wl := range workloadSpecs {
		for _, m := range endToEnd {
			b, c := values(base[wl.Name], m.Name), values(changed[wl.Name], m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio, v := verdict(m, b, c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f of %.6g\t%.2f\t%s\n",
				wl.Name, m.Name, m.Unit, cell(b), cell(c), ratio, median(b), m.Bound, v)
			rows++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("no workload has correct untraced runs in both %s and %s", basePath, changedPath)
	}
	return nil
}
