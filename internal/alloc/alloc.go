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

// Utilization returns the allocated fraction of the device in [0, 1].
func (a *Allocator) Utilization() float64 {
	return float64(a.total-a.free) / float64(a.total)
}

// wordMask returns the mask of n bits starting at bit lo of a word
// (0 < n, lo+n <= 64).
func wordMask(lo, n int64) uint64 {
	return (^uint64(0) >> uint(64-n)) << uint(lo)
}

// setRange marks [start, start+count) allocated. Callers must have
// verified the range is free.
func (a *Allocator) setRange(start, count int64) {
	for b, end := start, start+count; b < end; {
		lo := b & 63
		n := min(64-lo, end-b)
		a.words[b>>6] |= wordMask(lo, n)
		b += n
	}
	a.addGroupFree(start, count, -1)
	a.free -= count
}

// clearRange marks [start, start+count) free. Callers must have verified
// the range is allocated.
func (a *Allocator) clearRange(start, count int64) {
	for b, end := start, start+count; b < end; {
		lo := b & 63
		n := min(64-lo, end-b)
		a.words[b>>6] &^= wordMask(lo, n)
		b += n
	}
	a.addGroupFree(start, count, 1)
	a.free += count
}

// addGroupFree adds sign times the blocks of [start, start+count) each
// allocation group covers to that group's free count, one group span at a
// time.
func (a *Allocator) addGroupFree(start, count, sign int64) {
	end := start + count
	for g := start / a.groupSize; start < end; g++ {
		gEnd := min((g+1)*a.groupSize, end)
		a.groupFree[g] += sign * (gEnd - start)
		start = gEnd
	}
}

// nextFree returns the first free block in [from, end), or end if none.
// The scan skips fully-allocated words.
func (a *Allocator) nextFree(from, end int64) int64 {
	for from < end {
		off := from & 63
		if w := ^a.words[from>>6] >> uint(off); w != 0 {
			return min(from+int64(bits.TrailingZeros64(w)), end)
		}
		from += 64 - off
	}
	return end
}

// nextSet returns the first allocated block in [from, end), or end if
// none. The scan skips fully-free words.
func (a *Allocator) nextSet(from, end int64) int64 {
	for from < end {
		off := from & 63
		if w := a.words[from>>6] >> uint(off); w != 0 {
			return min(from+int64(bits.TrailingZeros64(w)), end)
		}
		from += 64 - off
	}
	return end
}

// runLen returns the length of the free run starting at block b, capped at
// limit blocks.
func (a *Allocator) runLen(b, limit int64) int64 {
	return a.nextSet(b, min(b+limit, a.total)) - b
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
		b = a.nextFree(b, limit)
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
	if b := a.nextSet(r.Start, r.End()); b < r.End() {
		return fmt.Errorf("alloc: block %d already allocated", b)
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
	if b := a.nextFree(r.Start, r.End()); b < r.End() {
		return fmt.Errorf("alloc: double free of block %d", b)
	}
	a.clearRange(r.Start, r.Count)
	return nil
}

// AppendAllocatedRuns appends every maximal run of allocated blocks to dst
// (sorted by start) and returns the extended slice — the volume-level
// enumeration a post-crash scrub diffs against the per-object owned sets
// to find orphaned allocations (claimed in the bitmap, owned by nobody).
func (a *Allocator) AppendAllocatedRuns(dst []Range) []Range {
	return a.appendAllocatedRuns(dst, 0, a.total)
}

// AllocatedRunsIn returns every maximal run of allocated blocks
// intersected with [lo, hi), sorted by start — the per-block-group
// enumeration mdfs fsck's leak check diffs against the reachable blocks.
func (a *Allocator) AllocatedRunsIn(lo, hi int64) []Range {
	return a.appendAllocatedRuns(nil, max(lo, 0), min(hi, a.total))
}

// appendAllocatedRuns appends the maximal allocated runs intersected with
// [lo, hi) to dst, a word at a time.
func (a *Allocator) appendAllocatedRuns(dst []Range, lo, hi int64) []Range {
	for b := lo; b < hi; {
		start := a.nextSet(b, hi)
		if start >= hi {
			break
		}
		b = a.nextFree(start, hi)
		dst = append(dst, Range{Start: start, Count: b - start})
	}
	return dst
}

// Allocated reports whether every block of r is allocated.
func (a *Allocator) Allocated(r Range) bool {
	if r.Start < 0 || r.Count <= 0 || r.End() > a.total {
		return false
	}
	return a.nextFree(r.Start, r.End()) >= r.End()
}
