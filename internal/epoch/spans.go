package epoch

// Span-set algebra for the online re-consolidation path. The offline planner
// only ever quantizes a full activity log once; the online control loop
// instead maintains each tenant's epoch profile incrementally — observed
// activity arrives as the monitor closes query intervals, and the loop needs
// the *new* epochs (Diff) to stream into the group's live CountSet and the
// running profile (Union) to remove on departure. Both are merge walks over
// the sorted span lists, O(len(sp)+len(other)), independent of epoch width —
// the same property the planner's interval representation guarantees.

// Union returns the epochs covered by sp, other, or both, as a fresh
// normalized Spans (adjacent ranges are merged). Both inputs must satisfy
// the Spans invariant.
func (sp Spans) Union(other Spans) Spans {
	if len(other) == 0 {
		return append(Spans(nil), sp...)
	}
	if len(sp) == 0 {
		return append(Spans(nil), other...)
	}
	out := make(Spans, 0, len(sp)+len(other))
	i, j := 0, 0
	for i < len(sp) || j < len(other) {
		var s Span
		if j >= len(other) || (i < len(sp) && sp[i].S <= other[j].S) {
			s = sp[i]
			i++
		} else {
			s = other[j]
			j++
		}
		if n := len(out); n > 0 && s.S <= out[n-1].E {
			if s.E > out[n-1].E {
				out[n-1].E = s.E
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Diff returns the epochs covered by sp but not by other, as a fresh
// normalized Spans. Both inputs must satisfy the Spans invariant.
func (sp Spans) Diff(other Spans) Spans {
	if len(sp) == 0 {
		return nil
	}
	if len(other) == 0 {
		return append(Spans(nil), sp...)
	}
	var out Spans
	j := 0
	for _, s := range sp {
		cur := s.S
		for cur < s.E {
			for j < len(other) && other[j].E <= cur {
				j++
			}
			if j >= len(other) || other[j].S >= s.E {
				out = append(out, Span{cur, s.E})
				break
			}
			if o := other[j]; o.S > cur {
				out = append(out, Span{cur, o.S})
				cur = o.E
			} else {
				cur = o.E
			}
		}
	}
	return out
}

// Overlap returns the number of epochs covered by both sp and other. Both
// must satisfy the Spans invariant. Whichever list falls behind gallops to
// catch up, so intersecting a long list with a short one costs about the
// short one's length times the logarithm of the gaps between its hits.
func (sp Spans) Overlap(other Spans) int64 {
	var n int64
	i, j := 0, 0
	for i < len(sp) && j < len(other) {
		a, b := sp[i], other[j]
		switch {
		case a.E <= b.S:
			if i++; i < len(sp) && sp[i].E <= b.S {
				i = sp.seek(i+1, b.S)
			}
		case b.E <= a.S:
			if j++; j < len(other) && other[j].E <= a.S {
				j = other.seek(j+1, a.S)
			}
		default:
			n += int64(min(a.E, b.E) - max(a.S, b.S))
			if a.E <= b.E {
				i++
			} else {
				j++
			}
		}
	}
	return n
}

// seek returns the index of the first span at or after from that ends after
// epoch x, galloping out from the cursor before bisecting.
func (sp Spans) seek(from int, x int32) int {
	lo, hi := from, from
	for step := 1; hi < len(sp) && sp[hi].E <= x; step *= 2 {
		lo = hi + 1
		hi += step
	}
	if hi > len(sp) {
		hi = len(sp)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp[mid].E <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
