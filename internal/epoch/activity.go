// Package epoch represents tenant activity over time and supports the
// fuzzy-capacity arithmetic of the LIVBPwFC problem (thesis §5).
//
// A tenant's activity is the set of instants at which it has at least one
// query executing ("strong notion of inactive", §4.3). We store it as a
// normalized list of half-open intervals in virtual time. For grouping, the
// intervals are quantized onto a fixed-width epoch grid (Fig 5.1): an epoch
// counts as active if any part of it overlaps an activity interval.
//
// A group's active-count function comes in two forms sharing one histogram
// algebra. A CountSet is a list of (start, end, count) segments, and a
// candidate tenant is evaluated by a merge-walk yielding the transition vector
// up[c] — the number of epochs whose count would rise from c to c+1 — at a
// cost that follows the *intervals* involved, not the epoch width; FFD, the
// exact solver, re-consolidation and the audits use it. The T_best search
// builds its one open group in a DenseSet, one counter per epoch, where the
// walks follow the candidate's epochs: on the planner's 3 s grid a tenant's
// spans average under three epochs, so that is the cheaper walk.
package epoch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Interval is a half-open span of virtual time [Start, End) during which a
// tenant is active.
type Interval struct {
	Start, End sim.Time
}

// Dur returns the length of the interval.
func (iv Interval) Dur() sim.Time { return iv.End - iv.Start }

// Activity is a normalized activity set: intervals are non-empty, sorted by
// start, and pairwise disjoint with positive gaps between them. Construct
// with Normalize (or from another Activity's methods) to maintain the
// invariant.
type Activity []Interval

// Normalize sorts ivs, drops empty intervals, and merges overlapping or
// touching ones. The input slice is not modified.
func Normalize(ivs []Interval) Activity {
	work := slices.Clone(ivs)
	slices.SortFunc(work, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	out := work[:0]
	for _, iv := range work {
		switch n := len(out); {
		case iv.End <= iv.Start: // empty
		case n > 0 && iv.Start <= out[n-1].End:
			out[n-1].End = max(out[n-1].End, iv.End)
		default:
			out = append(out, iv)
		}
	}
	return Activity(out)
}

// Valid reports whether a satisfies the Activity invariant. It is used by
// tests and by consistency checks after deserialization.
func (a Activity) Valid() bool {
	for i, iv := range a {
		if iv.End <= iv.Start {
			return false
		}
		if i > 0 && iv.Start <= a[i-1].End {
			return false
		}
	}
	return true
}

// Total returns the summed length of all intervals.
func (a Activity) Total() sim.Time {
	var t sim.Time
	for _, iv := range a {
		t += iv.Dur()
	}
	return t
}

// ActiveAt reports whether the activity covers instant t.
func (a Activity) ActiveAt(t sim.Time) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i].End > t })
	return i < len(a) && a[i].Start <= t
}

// Ratio returns the fraction of [0, horizon) covered by a. Intervals outside
// the horizon are clipped.
func (a Activity) Ratio(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	var t sim.Time
	for _, iv := range a {
		s, e := iv.Start, iv.End
		if s < 0 {
			s = 0
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			t += e - s
		}
	}
	return float64(t) / float64(horizon)
}

// Shift returns a copy of a translated by d.
func (a Activity) Shift(d sim.Time) Activity {
	out := make(Activity, len(a))
	for i, iv := range a {
		out[i] = Interval{iv.Start + d, iv.End + d}
	}
	return out
}

// Clip returns the portion of a that lies within [from, to).
func (a Activity) Clip(from, to sim.Time) Activity {
	var out Activity
	for _, iv := range a {
		s, e := iv.Start, iv.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			out = append(out, Interval{s, e})
		}
	}
	return out
}

// Union merges a and b into a new normalized Activity.
func (a Activity) Union(b Activity) Activity {
	merged := make([]Interval, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return Normalize(merged)
}

// Spans is a tenant's activity quantized onto an epoch grid: sorted,
// disjoint, non-adjacent half-open ranges of epoch indices.
type Spans []Span

// Span is a half-open range [S, E) of epoch indices.
type Span struct {
	S, E int32
}

// Len returns the number of epochs covered by sp.
func (sp Spans) Len() int64 {
	var n int64
	for _, s := range sp {
		n += int64(s.E - s.S)
	}
	return n
}

// Valid reports whether sp satisfies the Spans invariant (sorted, disjoint,
// gaps of at least one epoch between consecutive spans).
func (sp Spans) Valid() bool {
	for i, s := range sp {
		if s.E <= s.S {
			return false
		}
		if i > 0 && s.S <= sp[i-1].E {
			return false
		}
	}
	return true
}

// Grid describes an epoch quantization: Width is the epoch length, D the
// number of epochs covering the horizon.
type Grid struct {
	Width sim.Time
	D     int64
}

// NewGrid builds a grid of epochs of the given width covering [0, horizon).
// The horizon is rounded up to a whole number of epochs, matching the paper's
// fixed-width epoch model.
func NewGrid(width, horizon sim.Time) (Grid, error) {
	if width <= 0 {
		return Grid{}, fmt.Errorf("epoch: non-positive epoch width %v", width)
	}
	if horizon <= 0 {
		return Grid{}, fmt.Errorf("epoch: non-positive horizon %v", horizon)
	}
	d := int64((horizon + width - 1) / width)
	if d > int64(1)<<31-2 {
		return Grid{}, fmt.Errorf("epoch: %d epochs exceed the int32 index space", d)
	}
	return Grid{Width: width, D: d}, nil
}

// MustGrid is NewGrid for statically known-good parameters; it panics on
// error and is intended for tests and examples.
func MustGrid(width, horizon sim.Time) Grid {
	g, err := NewGrid(width, horizon)
	if err != nil {
		panic(err)
	}
	return g
}

// Quantize maps a onto the grid: an epoch is active when it overlaps any
// interval of a. Intervals outside [0, horizon) are clipped. Spans that
// become adjacent after rounding are merged. The result is allocated once,
// at one span per interval: composed logs lose only a few percent of their
// intervals to merging, less than growing the slice as it fills wastes.
func (g Grid) Quantize(a Activity) Spans {
	out := make(Spans, 0, len(a))
	for _, iv := range a {
		s64 := int64(iv.Start / g.Width)
		e64 := int64((iv.End + g.Width - 1) / g.Width)
		if s64 < 0 {
			s64 = 0
		}
		if e64 > g.D {
			e64 = g.D
		}
		if e64 <= s64 {
			continue
		}
		s, e := int32(s64), int32(e64)
		if n := len(out); n > 0 && s <= out[n-1].E {
			if e > out[n-1].E {
				out[n-1].E = e
			}
			continue
		}
		out = append(out, Span{s, e})
	}
	return out
}

// Dense expands sp into a []bool of length g.D, for tests and small
// diagnostics. (The planner's own dense form is the T_best search's
// DenseSet, one counter per epoch.)
func (g Grid) Dense(sp Spans) []bool {
	out := make([]bool, g.D)
	for _, s := range sp {
		for i := s.S; i < s.E; i++ {
			out[i] = true
		}
	}
	return out
}
