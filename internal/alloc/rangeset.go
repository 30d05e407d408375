package alloc

import "sort"

// RangeSet maintains a canonical union of block ranges: sorted, coalesced,
// non-overlapping. The IO servers use it to track every physical block a
// file owns — including preallocated-but-unwritten blocks — so deletion can
// return exactly the right space. The zero value is an empty set.
type RangeSet struct {
	r      []Range
	blocks int64 // the ranges' total count, kept by Add and Remove
}

// Add unions r into the set.
func (s *RangeSet) Add(r Range) {
	if r.Count <= 0 {
		return
	}
	i := sort.Search(len(s.r), func(i int) bool { return s.r[i].End() >= r.Start })
	j := i
	start, end := r.Start, r.End()
	var swallowed int64
	for j < len(s.r) && s.r[j].Start <= end {
		swallowed += s.r[j].Count
		if s.r[j].Start < start {
			start = s.r[j].Start
		}
		if s.r[j].End() > end {
			end = s.r[j].End()
		}
		j++
	}
	merged := Range{Start: start, Count: end - start}
	s.blocks += merged.Count - swallowed
	// Splice in place: extending an adjacent run (the common sequential-write
	// case) and replacing swallowed runs reuse the backing array instead of
	// building a temporary slice per call.
	if i == j {
		s.r = append(s.r, Range{})
		copy(s.r[i+1:], s.r[i:])
		s.r[i] = merged
		return
	}
	s.r[i] = merged
	s.r = append(s.r[:i+1], s.r[j:]...)
}

// Remove subtracts r from the set, splitting ranges that straddle it.
func (s *RangeSet) Remove(r Range) {
	if r.Count <= 0 {
		return
	}
	var out []Range
	for _, e := range s.r {
		if e.End() <= r.Start || e.Start >= r.End() {
			out = append(out, e)
			continue
		}
		s.blocks -= min(e.End(), r.End()) - max(e.Start, r.Start)
		if e.Start < r.Start {
			out = append(out, Range{Start: e.Start, Count: r.Start - e.Start})
		}
		if e.End() > r.End() {
			out = append(out, Range{Start: r.End(), Count: e.End() - r.End()})
		}
	}
	s.r = out
}

// Contains reports whether every block of r is in the set.
func (s *RangeSet) Contains(r Range) bool {
	if r.Count <= 0 {
		return true
	}
	i := sort.Search(len(s.r), func(i int) bool { return s.r[i].End() > r.Start })
	return i < len(s.r) && s.r[i].Start <= r.Start && s.r[i].End() >= r.End()
}

// Gaps returns the sub-ranges of r not covered by the set, in ascending
// order.
func (s *RangeSet) Gaps(r Range) []Range {
	return s.AppendGaps(nil, r)
}

// AppendGaps is Gaps appending into dst, so per-request paths (the OST
// prefetch check runs once per read piece) can reuse one scratch slice.
func (s *RangeSet) AppendGaps(dst []Range, r Range) []Range {
	if r.Count <= 0 {
		return dst
	}
	out := dst
	pos := r.Start
	i := sort.Search(len(s.r), func(i int) bool { return s.r[i].End() > r.Start })
	for ; i < len(s.r) && s.r[i].Start < r.End(); i++ {
		if s.r[i].Start > pos {
			out = append(out, Range{Start: pos, Count: s.r[i].Start - pos})
		}
		if e := s.r[i].End(); e > pos {
			pos = e
		}
	}
	if pos < r.End() {
		out = append(out, Range{Start: pos, Count: r.End() - pos})
	}
	return out
}

// Ranges returns a copy of the canonical ranges in ascending order.
func (s *RangeSet) Ranges() []Range {
	out := make([]Range, len(s.r))
	copy(out, s.r)
	return out
}

// Blocks returns the total number of blocks in the set.
func (s *RangeSet) Blocks() int64 { return s.blocks }

// Len returns the number of disjoint ranges.
func (s *RangeSet) Len() int { return len(s.r) }
