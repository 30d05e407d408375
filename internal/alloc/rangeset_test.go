package alloc

import (
	"reflect"
	"testing"
	"testing/quick"

	"redbud/internal/sim"
)

func TestRangeSetAddCoalesces(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 0, Count: 10})
	s.Add(Range{Start: 20, Count: 10})
	s.Add(Range{Start: 10, Count: 10}) // bridges the gap
	if s.Len() != 1 || s.Blocks() != 30 {
		t.Fatalf("set = %v, want one range of 30", s.Ranges())
	}
	s.Add(Range{Start: 5, Count: 10}) // fully contained
	if s.Len() != 1 || s.Blocks() != 30 {
		t.Fatalf("contained add changed set: %v", s.Ranges())
	}
	s.Add(Range{Start: 25, Count: 20}) // overlapping extension
	if s.Len() != 1 || s.Blocks() != 45 {
		t.Fatalf("set = %v, want one range of 45", s.Ranges())
	}
}

func TestRangeSetAdjacentMerge(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 10, Count: 5})
	s.Add(Range{Start: 15, Count: 5}) // exactly adjacent
	if s.Len() != 1 {
		t.Fatalf("adjacent ranges should coalesce: %v", s.Ranges())
	}
}

func TestRangeSetRemove(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 0, Count: 30})
	s.Remove(Range{Start: 10, Count: 10})
	got := s.Ranges()
	if len(got) != 2 || got[0] != (Range{Start: 0, Count: 10}) || got[1] != (Range{Start: 20, Count: 10}) {
		t.Fatalf("Ranges = %v", got)
	}
	if s.Contains(Range{Start: 5, Count: 10}) {
		t.Fatal("Contains should be false across a hole")
	}
	if !s.Contains(Range{Start: 20, Count: 10}) {
		t.Fatal("Contains should be true for a kept range")
	}
}

func TestRangeSetZeroValues(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 5, Count: 0})
	s.Remove(Range{Start: 0, Count: 100})
	if s.Len() != 0 || s.Blocks() != 0 {
		t.Fatalf("empty-set ops changed state: %v", s.Ranges())
	}
	if !s.Contains(Range{Start: 3, Count: 0}) {
		t.Fatal("empty range is vacuously contained")
	}
}

// recount sums the set's ranges, the oracle of the total Blocks keeps.
func recount(s *RangeSet) int64 {
	var n int64
	for _, r := range s.Ranges() {
		n += r.Count
	}
	return n
}

// Property: RangeSet agrees with a block-level model set under random
// adds and removes, its kept block total equals a recount after every op,
// and its representation stays canonical.
func TestRangeSetModelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		var s RangeSet
		model := map[int64]bool{}
		for op := 0; op < 200; op++ {
			r := Range{Start: rng.Int63n(128), Count: rng.Int63n(16) + 1}
			if rng.Intn(2) == 0 {
				s.Add(r)
				for b := r.Start; b < r.End(); b++ {
					model[b] = true
				}
			} else {
				s.Remove(r)
				for b := r.Start; b < r.End(); b++ {
					delete(model, b)
				}
			}
			// The kept total must equal a recount after every op.
			if s.Blocks() != recount(&s) {
				return false
			}
		}
		if s.Blocks() != int64(len(model)) {
			return false
		}
		// Canonical: sorted, positive, no adjacency.
		rs := s.Ranges()
		for i, e := range rs {
			if e.Count <= 0 {
				return false
			}
			if i > 0 && rs[i-1].End() >= e.Start {
				return false
			}
		}
		for b := range model {
			if !s.Contains(Range{Start: b, Count: 1}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendGapsMatchesGaps checks the append-into variant is equivalent to
// Gaps and that scratch reuse is allocation-free once warm.
func TestAppendGapsMatchesGaps(t *testing.T) {
	var s RangeSet
	for _, r := range []Range{{Start: 10, Count: 5}, {Start: 20, Count: 2}, {Start: 30, Count: 10}} {
		s.Add(r)
	}
	scratch := make([]Range, 0, 8)
	for _, q := range []Range{{Start: 0, Count: 50}, {Start: 12, Count: 3}, {Start: 11, Count: 2}, {Start: 45, Count: 5}} {
		want := s.Gaps(q)
		scratch = s.AppendGaps(scratch[:0], q)
		if len(want) == 0 && len(scratch) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, scratch) {
			t.Fatalf("AppendGaps(%v) = %v, Gaps = %v", q, scratch, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = s.AppendGaps(scratch[:0], Range{Start: 0, Count: 50})
	})
	if allocs != 0 {
		t.Fatalf("warm AppendGaps allocates %.1f objects/op, want 0", allocs)
	}
}
