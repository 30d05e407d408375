package alloc

import (
	"math/bits"

	"redbud/internal/telemetry"
)

// contigBuckets is the number of log2-sized buckets in the free-run
// histogram: bucket i counts free runs of length [2^i, 2^(i+1)), with the
// last bucket absorbing everything longer.
const contigBuckets = 16

// ContigStats summarizes the contiguity of the free space: how much of it
// is left, in how many runs, and how large the runs are. It is the
// allocator-level observable of defragmentation effectiveness — migrating
// scattered extents into one destination range turns many small free runs
// back into few large ones.
type ContigStats struct {
	// FreeBlocks is the total free space (reserved blocks count as free:
	// reservations are soft).
	FreeBlocks int64
	// FreeRuns is the number of maximal free runs.
	FreeRuns int64
	// LargestRun is the length of the longest free run, and LargestStart
	// its first block.
	LargestRun   int64
	LargestStart int64
	// Hist is the log2 free-run-length histogram: Hist[i] counts runs of
	// [2^i, 2^(i+1)) blocks; the last bucket absorbs longer runs.
	Hist [contigBuckets]int64
}

// FreeContig scans the bitmap and returns the free-space contiguity
// summary. Reservations are ignored: they are volatile claims over space
// that is still free on disk. The scan is O(total/64) word-skipping, cheap
// at simulation scale; telemetry collectors call it at snapshot time only.
func (a *Allocator) FreeContig() ContigStats {
	var st ContigStats
	st.FreeBlocks = a.free
	b := int64(0)
	for b < a.total {
		b = a.nextFree(b, a.total)
		if b >= a.total {
			break
		}
		n := a.runLen(b, a.total-b)
		st.FreeRuns++
		if n > st.LargestRun {
			st.LargestRun = n
			st.LargestStart = b
		}
		idx := bits.Len64(uint64(n)) - 1
		if idx >= contigBuckets {
			idx = contigBuckets - 1
		}
		st.Hist[idx]++
		b += n
	}
	return st
}

// Instrument publishes the allocator's free-space state into the registry:
// total free blocks, reserved blocks, free-run count, and the largest free
// run. The collectors run FreeContig at snapshot time, so uninstrumented
// allocators pay nothing.
func (a *Allocator) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	reg.GaugeFunc("alloc_free_blocks", labels, func() int64 { return a.FreeBlocks() })
	reg.GaugeFunc("alloc_reserved_blocks", labels, func() int64 { return a.ReservedBlocks() })
	reg.GaugeFunc("alloc_free_runs", labels, func() int64 { return a.FreeContig().FreeRuns })
	reg.GaugeFunc("alloc_largest_free_run", labels, func() int64 { return a.FreeContig().LargestRun })
}
