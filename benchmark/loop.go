package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is their median, and
// the last set-up is the one measured on.
const setupRepeats = 3

// timedSetup sets up setupRepeats times and returns the last environment with
// the median set-up time in seconds.
func timedSetup[T any](f func() (T, error)) (T, float64, error) {
	var env T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := f()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}

// minPasses is the least number of timed passes of each kind a run makes
// however short its window.
const minPasses = 2

// passes runs the measuring loop: one untimed pass first (the heap grows to
// its working size, lazy set-up finishes, and its output becomes the
// reference the timed passes must reproduce), then timed passes until the
// window has closed. Every pass does identical, deterministic work; per-pass
// figures are reduced by their median. A traced run alternates untraced and
// traced passes, so the two are measured in one process on one heap and
// their difference is the tracing overhead.
func passes[P any](cfg runConfig, run func(id int, tr *tracer) (P, error)) (ref P, plain, traced []P, err error) {
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if ref, err = run(0, nil); err != nil {
		return ref, nil, nil, err
	}
	for id := 1; ; id++ {
		enough := len(plain) >= minPasses && (!cfg.traced() || len(traced) >= minPasses)
		if enough && !time.Now().Before(deadline) {
			return ref, plain, traced, nil
		}
		// Every pass starts from a collected heap, so the collector's pacing,
		// and with it a pass's time and the peak memory, repeats.
		runtime.GC()
		tr, into := (*tracer)(nil), &plain
		if cfg.traced() && id%2 == 0 {
			tr, into = cfg.tr, &traced
		}
		p, err := run(id, tr)
		if err != nil {
			return ref, nil, nil, err
		}
		*into = append(*into, p)
	}
}

// memDelta is what the Go runtime did during a pass's timed section.
type memDelta struct {
	mallocs, bytes uint64
	gcPause        time.Duration
}

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// each maps the passes to one figure per pass.
func each[P any](ps []P, f func(P) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
