// Command thrifty-experiments regenerates every table and figure of the
// paper's evaluation (Fig 1.1, Table 5.1, Figs 7.1–7.7, and the headline
// consolidation result).
//
// Usage:
//
//	thrifty-experiments                       # all experiments, small scale
//	thrifty-experiments -scale full           # paper-scale parameters
//	thrifty-experiments -only fig7.4,headline # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

type experiment struct {
	name string
	run  func(env *experiments.Env) ([]*experiments.Table, error)
	// needsEnv is false for substrate-only experiments.
	needsEnv bool
}

func table1(f func(*experiments.Env) (*experiments.Table, error)) func(*experiments.Env) ([]*experiments.Table, error) {
	return func(env *experiments.Env) ([]*experiments.Table, error) {
		t, err := f(env)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{t}, nil
	}
}

var all = []experiment{
	{"fig1.1a", func(*experiments.Env) ([]*experiments.Table, error) {
		t, err := experiments.Fig11aSpeedup()
		return []*experiments.Table{t}, err
	}, false},
	{"fig1.1b", func(*experiments.Env) ([]*experiments.Table, error) {
		t, err := experiments.Fig11bLatency()
		return []*experiments.Table{t}, err
	}, false},
	{"fig1.1c", func(*experiments.Env) ([]*experiments.Table, error) {
		t, err := experiments.Fig11cNonLinear()
		return []*experiments.Table{t}, err
	}, false},
	{"table5.1", func(*experiments.Env) ([]*experiments.Table, error) {
		return []*experiments.Table{experiments.Table51Provisioning()}, nil
	}, false},
	{"fig7.1", table1(experiments.Fig71EpochSize), true},
	{"fig7.2", table1(experiments.Fig72Tenants), true},
	{"fig7.3", table1(experiments.Fig73Theta), true},
	{"fig7.4", table1(experiments.Fig74Replication), true},
	{"fig7.5", table1(experiments.Fig75SLA), true},
	{"fig7.6", table1(experiments.Fig76ActiveRatio), true},
	{"fig7.7", func(env *experiments.Env) ([]*experiments.Table, error) {
		res, err := experiments.Fig77ElasticScaling(env)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}, true},
	{"chaos", experiments.ChaosRecovery, true},
	{"grayfail", experiments.GrayFail, true},
	{"domainfail", experiments.DomainFail, true},
	{"overload", experiments.OverloadStorm, true},
	{"ablation", table1(experiments.AblationSolvers), true},
	{"divergent", table1(experiments.DivergentDesign), true},
	{"headline", func(env *experiments.Env) ([]*experiments.Table, error) {
		res, err := experiments.Headline(env)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}, true},
}

func main() {
	var (
		scaleName = flag.String("scale", "small", `experiment scale: "small" or "full" (paper parameters)`)
		only      = flag.String("only", "", "comma-separated experiment names (default: all)")
		seed      = flag.Int64("seed", 1, "random seed")
		list      = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range all {
			fmt.Println(e.name)
		}
		return
	}
	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		fatal("unknown scale %q", *scaleName)
	}

	selected := all
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		selected = nil
		for _, e := range all {
			if want[e.name] {
				selected = append(selected, e)
				delete(want, e.name)
			}
		}
		for n := range want {
			fatal("unknown experiment %q (use -list)", n)
		}
	}

	needsEnv := false
	for _, e := range selected {
		needsEnv = needsEnv || e.needsEnv
	}
	var env *experiments.Env
	if needsEnv {
		fmt.Fprintf(os.Stderr, "building %s-scale environment (T=%d, %d days, %d sessions/class)...\n",
			scale.Name, scale.Tenants, scale.Days, scale.SessionsPerClass)
		start := time.Now()
		var err error
		env, err = experiments.NewEnv(scale, *seed)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	for _, e := range selected {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...\n", e.name)
		tables, err := e.run(env)
		if err != nil {
			fatal("%s: %v", e.name, err)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thrifty-experiments: "+format+"\n", args...)
	os.Exit(1)
}
