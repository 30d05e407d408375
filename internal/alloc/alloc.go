// Package alloc implements the on-disk free-block allocator used by the
// Redbud IO servers and the metadata file system.
//
// The allocator combines three mechanisms the paper builds on:
//
//   - a persistent block bitmap, the source of truth for allocated space;
//   - parallel allocation groups (PAGs), fixed-size regions used to spread
//     unrelated allocations and to account free space per region;
//   - soft reservation ranges: free regions temporarily claimed by an owner
//     (an inode, or under MiF a write stream). Blocks inside a reservation
//     are invisible to other owners' searches but remain free in the bitmap
//     until the owner converts them. This is the ext4-style "reservation"
//     baseline and the substrate on which the MiF sequential window sits.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// ErrNoSpace is returned when no free block satisfying the request exists.
var ErrNoSpace = errors.New("alloc: no space left on device")

// Owner identifies the holder of a reservation. Owner 0 is reserved to mean
// "nobody" and is rejected by the reservation API.
type Owner uint64

// Range is a half-open block range [Start, Start+Count).
type Range struct {
	Start int64
	Count int64
}

// End returns the block just past the range.
func (r Range) End() int64 { return r.Start + r.Count }

// reservation is a Range held by an Owner.
type reservation struct {
	Range
	owner Owner
}

// Allocator manages the free space of one device.
type Allocator struct {
	total     int64
	groupSize int64
	words     []uint64 // bit set => block allocated
	free      int64
	groupFree []int64
	resv      []reservation // sorted by Start, non-overlapping
	owners    Owner         // the last owner NewOwner handed out
}

// New creates an allocator for a device of total blocks divided into
// allocation groups of groupSize blocks. It panics on non-positive sizes:
// the callers are format-time code paths where such a request is a bug.
func New(total, groupSize int64) *Allocator {
	if total <= 0 || groupSize <= 0 {
		panic(fmt.Sprintf("alloc: invalid geometry total=%d groupSize=%d", total, groupSize))
	}
	ngroups := (total + groupSize - 1) / groupSize
	a := &Allocator{
		total:     total,
		groupSize: groupSize,
		words:     make([]uint64, (total+63)/64),
		free:      total,
		groupFree: make([]int64, ngroups),
	}
	for g := int64(0); g < ngroups; g++ {
		end := (g + 1) * groupSize
		if end > total {
			end = total
		}
		a.groupFree[g] = end - g*groupSize
	}
	return a
}

// Total returns the device size in blocks.
func (a *Allocator) Total() int64 { return a.total }

// GroupSize returns the allocation-group size in blocks.
func (a *Allocator) GroupSize() int64 { return a.groupSize }

// Groups returns the number of allocation groups.
func (a *Allocator) Groups() int { return len(a.groupFree) }

// FreeBlocks returns the number of unallocated blocks (reserved blocks
// count as free: reservations are soft).
func (a *Allocator) FreeBlocks() int64 {
	return a.free
}

// GroupFree returns the free-block count of group g.
func (a *Allocator) GroupFree(g int) int64 {
	return a.groupFree[g]
}

// Utilization returns the allocated fraction of the device in [0, 1].
func (a *Allocator) Utilization() float64 {
	return float64(a.total-a.free) / float64(a.total)
}

// isSet reports whether block b is allocated.
func (a *Allocator) isSet(b int64) bool {
	return a.words[b>>6]&(1<<(uint(b)&63)) != 0
}

// setRange marks [start, start+count) allocated. Callers must have
// verified the range is free.
func (a *Allocator) setRange(start, count int64) {
	for b := start; b < start+count; b++ {
		a.words[b>>6] |= 1 << (uint(b) & 63)
		a.groupFree[b/a.groupSize]--
	}
	a.free -= count
}

// clearRange marks [start, start+count) free. Callers must have verified
// the range is allocated.
func (a *Allocator) clearRange(start, count int64) {
	for b := start; b < start+count; b++ {
		a.words[b>>6] &^= 1 << (uint(b) & 63)
		a.groupFree[b/a.groupSize]++
	}
	a.free += count
}

// nextFree returns the first free block >= from, or total if none. The
// scan skips fully-allocated words.
func (a *Allocator) nextFree(from int64) int64 {
	if from < 0 {
		from = 0
	}
	for from < a.total {
		w := a.words[from>>6]
		// Mask off bits below the in-word offset.
		w |= (1 << (uint(from) & 63)) - 1
		if w != ^uint64(0) {
			b := int64(from>>6)<<6 + int64(bits.TrailingZeros64(^w))
			if b >= a.total {
				return a.total
			}
			return b
		}
		from = (from>>6 + 1) << 6
	}
	return a.total
}

// runLen returns the length of the free run starting at block b, capped at
// max.
func (a *Allocator) runLen(b, max int64) int64 {
	var n int64
	for n < max && b+n < a.total && !a.isSet(b+n) {
		n++
	}
	return n
}

// reservedSpan returns, for block b, the end of a reservation by an owner
// other than owner covering b, or 0 if b is not foreign-reserved.
func (a *Allocator) reservedSpan(owner Owner, b int64) int64 {
	i := sort.Search(len(a.resv), func(i int) bool { return a.resv[i].End() > b })
	if i < len(a.resv) && a.resv[i].Start <= b && a.resv[i].owner != owner {
		return a.resv[i].End()
	}
	return 0
}

// foreignResvBefore returns the start of the first reservation by another
// owner in [b, limit), or limit if none.
func (a *Allocator) foreignResvBefore(owner Owner, b, limit int64) int64 {
	i := sort.Search(len(a.resv), func(i int) bool { return a.resv[i].End() > b })
	for ; i < len(a.resv); i++ {
		r := a.resv[i]
		if r.Start >= limit {
			break
		}
		if r.owner != owner {
			if r.Start < b {
				return b
			}
			return r.Start
		}
	}
	return limit
}

// AllocNear allocates up to want contiguous blocks, searching forward from
// goal and wrapping around the device. The returned run starts at the first
// free, non-foreign-reserved block found; its length is the smaller of want
// and the available run. owner may be 0 for anonymous allocations; a
// non-zero owner may allocate inside its own reservations.
func (a *Allocator) AllocNear(owner Owner, goal, want int64) (start, got int64, err error) {
	if want <= 0 {
		return 0, 0, fmt.Errorf("alloc: AllocNear want=%d", want)
	}
	if goal < 0 || goal >= a.total {
		goal = 0
	}
	if a.free == 0 {
		return 0, 0, ErrNoSpace
	}
	if s, n := a.search(owner, goal, a.total, want); n > 0 {
		a.setRange(s, n)
		return s, n, nil
	}
	if s, n := a.search(owner, 0, goal, want); n > 0 {
		a.setRange(s, n)
		return s, n, nil
	}
	// Every free block is foreign-reserved; honouring reservations, there
	// is no space. The MiF and reservation policies release windows under
	// pressure before retrying, so surfacing ErrNoSpace here is correct.
	return 0, 0, ErrNoSpace
}

// search finds the first free run in [from, limit) that is not
// reserved by a foreign owner, returning its start and length (capped at
// want). A zero length means no run was found.
func (a *Allocator) search(owner Owner, from, limit, want int64) (int64, int64) {
	b := from
	for b < limit {
		b = a.nextFree(b)
		if b >= limit {
			return 0, 0
		}
		if end := a.reservedSpan(owner, b); end > 0 {
			b = end
			continue
		}
		// Clip the run at the next foreign reservation.
		clip := a.foreignResvBefore(owner, b, limit)
		max := want
		if clip-b < max {
			max = clip - b
		}
		if max > 0 {
			if n := a.runLen(b, max); n > 0 {
				return b, n
			}
		}
		b++
	}
	return 0, 0
}

// AllocExact allocates exactly the range r. It fails if any block in r is
// already allocated or reserved by a foreign owner. It is used to convert a
// reservation (sequential window) into persistent allocation and by
// fallocate-style static preallocation.
func (a *Allocator) AllocExact(owner Owner, r Range) error {
	if r.Start < 0 || r.Count <= 0 || r.End() > a.total {
		return fmt.Errorf("alloc: AllocExact range [%d,+%d) out of device [0,%d)", r.Start, r.Count, a.total)
	}
	for b := r.Start; b < r.End(); b++ {
		if a.isSet(b) {
			return fmt.Errorf("alloc: block %d already allocated", b)
		}
	}
	if clip := a.foreignResvBefore(owner, r.Start, r.End()); clip < r.End() {
		return fmt.Errorf("alloc: range [%d,+%d) intersects foreign reservation at %d", r.Start, r.Count, clip)
	}
	a.setRange(r.Start, r.Count)
	return nil
}

// Free releases the range r. Freeing an unallocated block is an error:
// double frees indicate file-system corruption and must surface.
func (a *Allocator) Free(r Range) error {
	if r.Start < 0 || r.Count <= 0 || r.End() > a.total {
		return fmt.Errorf("alloc: Free range [%d,+%d) out of device [0,%d)", r.Start, r.Count, a.total)
	}
	for b := r.Start; b < r.End(); b++ {
		if !a.isSet(b) {
			return fmt.Errorf("alloc: double free of block %d", b)
		}
	}
	a.clearRange(r.Start, r.Count)
	return nil
}

// AppendAllocatedRuns appends every maximal run of allocated blocks to dst
// (sorted by start) and returns the extended slice — the volume-level
// enumeration a post-crash scrub diffs against the per-object owned sets
// to find orphaned allocations (claimed in the bitmap, owned by nobody).
func (a *Allocator) AppendAllocatedRuns(dst []Range) []Range {
	start := int64(-1)
	for w, word := range a.words {
		if word == 0 {
			if start >= 0 {
				dst = append(dst, Range{Start: start, Count: int64(w)*64 - start})
				start = -1
			}
			continue
		}
		base := int64(w) * 64
		for i := int64(0); i < 64 && base+i < a.total; i++ {
			if word&(1<<uint(i)) != 0 {
				if start < 0 {
					start = base + i
				}
			} else if start >= 0 {
				dst = append(dst, Range{Start: start, Count: base + i - start})
				start = -1
			}
		}
	}
	if start >= 0 {
		dst = append(dst, Range{Start: start, Count: a.total - start})
	}
	return dst
}

// AllocatedRunsIn returns every maximal run of allocated blocks
// intersected with [lo, hi), sorted by start — the per-block-group
// enumeration mdfs fsck's leak check diffs against the reachable blocks.
func (a *Allocator) AllocatedRunsIn(lo, hi int64) []Range {
	if lo < 0 {
		lo = 0
	}
	if hi > a.total {
		hi = a.total
	}
	if lo >= hi {
		return nil
	}
	var out []Range
	start := int64(-1)
	for b := lo; b < hi; b++ {
		if a.isSet(b) {
			if start < 0 {
				start = b
			}
		} else if start >= 0 {
			out = append(out, Range{Start: start, Count: b - start})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Range{Start: start, Count: hi - start})
	}
	return out
}

// Allocated reports whether every block of r is allocated.
func (a *Allocator) Allocated(r Range) bool {
	if r.Start < 0 || r.Count <= 0 || r.End() > a.total {
		return false
	}
	for b := r.Start; b < r.End(); b++ {
		if !a.isSet(b) {
			return false
		}
	}
	return true
}
