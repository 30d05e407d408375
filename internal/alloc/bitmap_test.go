package alloc

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"redbud/internal/sim"
)

// bitOracle is the bitmap one block at a time: the model the word-wide
// scans of Allocator are checked against.
type bitOracle []bool

// runLen is the free run at b, capped at limit blocks.
func (o bitOracle) runLen(b, limit int64) int64 {
	var n int64
	for n < limit && b+n < int64(len(o)) && !o[b+n] {
		n++
	}
	return n
}

// runs returns the maximal runs of blocks whose state is set, within
// [lo, hi).
func (o bitOracle) runs(set bool, lo, hi int64) []Range {
	var out []Range
	for b := lo; b < hi; b++ {
		if o[b] != set {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == b {
			out[n-1].Count++
		} else {
			out = append(out, Range{Start: b, Count: 1})
		}
	}
	return out
}

// contig is FreeContig computed from the runs.
func (o bitOracle) contig() ContigStats {
	var st ContigStats
	for _, r := range o.runs(false, 0, int64(len(o))) {
		st.FreeBlocks += r.Count
		st.FreeRuns++
		if r.Count > st.LargestRun {
			st.LargestRun, st.LargestStart = r.Count, r.Start
		}
		st.Hist[min(bits.Len64(uint64(r.Count))-1, contigBuckets-1)]++
	}
	return st
}

// TestBitmapMatchesBitOracle drives random allocations and frees through
// setRange, clearRange, AllocExact and Free on devices whose size is not a
// multiple of 64, and after every step checks the word-wide scans —
// runLen, nextSet, nextFree, FreeContig, the allocated-run enumerations — and the
// per-group free counts against a bit-at-a-time oracle.
func TestBitmapMatchesBitOracle(t *testing.T) {
	for _, geo := range []struct{ total, group int64 }{
		{1000, 96}, {130, 7}, {4099, 512}, {63, 64}, {200, 1},
	} {
		t.Run(fmt.Sprintf("%d/%d", geo.total, geo.group), func(t *testing.T) {
			rng := sim.NewRand(uint64(geo.total*31 + geo.group))
			a := New(geo.total, geo.group)
			o := make(bitOracle, geo.total)
			for step := 0; step < 3000; step++ {
				start := rng.Int63n(geo.total)
				r := Range{Start: start, Count: 1 + rng.Int63n(min(geo.total-start, 150))}
				firstSet, firstFree := r.End(), r.End()
				for b := r.End() - 1; b >= r.Start; b-- {
					if o[b] {
						firstSet = b
					} else {
						firstFree = b
					}
				}
				switch {
				case firstSet == r.End() && step%2 == 0:
					a.setRange(r.Start, r.Count)
				case firstSet == r.End():
					if err := a.AllocExact(0, r); err != nil {
						t.Fatalf("step %d: AllocExact(%v) of a free range: %v", step, r, err)
					}
				case firstFree == r.End() && step%2 == 0:
					a.clearRange(r.Start, r.Count)
				case firstFree == r.End():
					if err := a.Free(r); err != nil {
						t.Fatalf("step %d: Free(%v) of an allocated range: %v", step, r, err)
					}
				default:
					// Mixed: both checks must name the first offending block.
					want := fmt.Sprintf("alloc: block %d already allocated", firstSet)
					if err := a.AllocExact(0, r); err == nil || err.Error() != want {
						t.Fatalf("step %d: AllocExact(%v) = %v, want %q", step, r, err, want)
					}
					want = fmt.Sprintf("alloc: double free of block %d", firstFree)
					if err := a.Free(r); err == nil || err.Error() != want {
						t.Fatalf("step %d: Free(%v) = %v, want %q", step, r, err, want)
					}
					if a.Allocated(r) {
						t.Fatalf("step %d: Allocated(%v) on a mixed range", step, r)
					}
					continue
				}
				for b := r.Start; b < r.End(); b++ {
					o[b] = firstSet == r.End()
				}
				checkBitmap(t, step, a, o, rng)
			}
		})
	}
}

// checkBitmap compares a with the oracle o after one step.
func checkBitmap(t *testing.T, step int, a *Allocator, o bitOracle, rng *sim.Rand) {
	t.Helper()
	total := int64(len(o))
	var free int64
	for g := 0; g < a.Groups(); g++ {
		lo, hi := int64(g)*a.groupSize, min(int64(g+1)*a.groupSize, total)
		var n int64
		for b := lo; b < hi; b++ {
			if !o[b] {
				n++
			}
		}
		if got := a.GroupFree(g); got != n {
			t.Fatalf("step %d: GroupFree(%d) = %d, oracle %d", step, g, got, n)
		}
		free += n
	}
	if a.FreeBlocks() != free {
		t.Fatalf("step %d: FreeBlocks = %d, oracle %d", step, a.FreeBlocks(), free)
	}
	for b := int64(0); b < total; b++ {
		if got := a.words[b>>6]&(1<<uint(b&63)) != 0; got != o[b] {
			t.Fatalf("step %d: block %d allocated=%v, oracle %v", step, b, got, o[b])
		}
	}
	if got, want := a.FreeContig(), o.contig(); got != want {
		t.Fatalf("step %d: FreeContig = %+v, oracle %+v", step, got, want)
	}
	if got, want := a.AppendAllocatedRuns(nil), o.runs(true, 0, total); !slices.Equal(got, want) {
		t.Fatalf("step %d: AppendAllocatedRuns = %v, oracle %v", step, got, want)
	}
	for i := 0; i < 8; i++ {
		b := rng.Int63n(total)
		limit := 1 + rng.Int63n(total)
		if got, want := a.runLen(b, limit), o.runLen(b, limit); got != want {
			t.Fatalf("step %d: runLen(%d, %d) = %d, oracle %d", step, b, limit, got, want)
		}
		end := b + rng.Int63n(total-b+1)
		want := end
		for x := b; x < end; x++ {
			if o[x] {
				want = x
				break
			}
		}
		if got := a.nextSet(b, end); got != want {
			t.Fatalf("step %d: nextSet(%d, %d) = %d, oracle %d", step, b, end, got, want)
		}
		want = end
		for x := b; x < end; x++ {
			if !o[x] {
				want = x
				break
			}
		}
		if got := a.nextFree(b, end); got != want {
			t.Fatalf("step %d: nextFree(%d, %d) = %d, oracle %d", step, b, end, got, want)
		}
		lo, hi := b-rng.Int63n(3), end+rng.Int63n(3)
		wantRuns := o.runs(true, max(lo, 0), min(hi, total))
		if got := a.AllocatedRunsIn(lo, hi); !slices.Equal(got, wantRuns) {
			t.Fatalf("step %d: AllocatedRunsIn(%d, %d) = %v, oracle %v", step, lo, hi, got, wantRuns)
		}
	}
}
