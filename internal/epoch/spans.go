package epoch

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
