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
	return appendUnion(make(Spans, 0, len(sp)+len(other)), sp, other)
}

// appendUnion appends the union of a and b, normalized, to out, which must
// not alias either.
func appendUnion(out, a, b Spans) Spans {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var s Span
		if j >= len(b) || (i < len(a) && a[i].S <= b[j].S) {
			s = a[i]
			i++
		} else {
			s = b[j]
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
	return appendDiff(nil, sp, other)
}

// appendDiff appends the epochs of sp not in other to out, which must alias
// neither.
func appendDiff(out, sp, other Spans) Spans {
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

// Word is one 64-epoch word of a set of epochs: bit b of B stands for epoch
// 64·I + b.
type Word struct {
	I int32
	B uint64
}

// AppendWords appends sp's epochs to dst as their non-zero 64-epoch words in
// ascending I. Words already in dst are never merged with sp's, so one arena
// can hold several tenants' words back to back.
func (sp Spans) AppendWords(dst []Word) []Word {
	first := len(dst)
	for _, s := range sp {
		for x, end := s.S, int32(0); x < s.E; x = end {
			end = min(s.E, x>>6<<6+64)
			dst = orWord(dst, first, x>>6, (^uint64(0)>>(64-(end-x)))<<(x&63))
		}
	}
	return dst
}

// AppendBlocks appends the blocks of one tenant's words ws to dst: bit b of
// block I is set when ws holds word 64·I + b. Like AppendWords, it never
// merges with what dst already holds.
func AppendBlocks(dst, ws []Word) []Word {
	first := len(dst)
	for _, w := range ws {
		dst = orWord(dst, first, w.I>>6, 1<<(w.I&63))
	}
	return dst
}

// orWord ORs b into word i at the end of dst[first:], appending the word
// when it is not there yet.
func orWord(dst []Word, first int, i int32, b uint64) []Word {
	if n := len(dst); n > first && dst[n-1].I == i {
		dst[n-1].B |= b
		return dst
	}
	return append(dst, Word{i, b})
}
