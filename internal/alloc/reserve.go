package alloc

import (
	"fmt"
	"sort"
)

// NewOwner returns an owner no earlier call on this allocator returned:
// every policy stream and defrag controller drawing its reservations from
// the allocator takes one, so their windows can never collide. The
// sequence starts at 1 for each allocator and depends on nothing else.
func (a *Allocator) NewOwner() Owner {
	a.owners++
	return a.owners
}

// Reserve claims the free range r for owner as a soft reservation: the
// blocks stay free in the bitmap but other owners' searches skip them. The
// range must be entirely free and not intersect any existing reservation
// (including the owner's: windows never overlap).
func (a *Allocator) Reserve(owner Owner, r Range) error {
	if owner == 0 {
		return fmt.Errorf("alloc: Reserve with zero owner")
	}
	if r.Start < 0 || r.Count <= 0 || r.End() > a.total {
		return fmt.Errorf("alloc: Reserve range [%d,+%d) out of device [0,%d)", r.Start, r.Count, a.total)
	}
	if b := a.nextSet(r.Start, r.End()); b < r.End() {
		return fmt.Errorf("alloc: Reserve over allocated block %d", b)
	}
	i := sort.Search(len(a.resv), func(i int) bool { return a.resv[i].End() > r.Start })
	if i < len(a.resv) && a.resv[i].Start < r.End() {
		return fmt.Errorf("alloc: Reserve range [%d,+%d) overlaps reservation [%d,+%d)",
			r.Start, r.Count, a.resv[i].Start, a.resv[i].Count)
	}
	a.resv = append(a.resv, reservation{})
	copy(a.resv[i+1:], a.resv[i:])
	a.resv[i] = reservation{Range: r, owner: owner}
	return nil
}

// ReserveNear finds a free, unreserved run of up to want blocks starting
// the search at goal (wrapping around the device) and reserves it for
// owner. It returns the reserved range, which may be shorter than want when
// free space is fragmented. This is how a sequential window is opened: the
// window lands "near the last on-disk block of the shared file".
func (a *Allocator) ReserveNear(owner Owner, goal, want int64) (Range, error) {
	if owner == 0 {
		return Range{}, fmt.Errorf("alloc: ReserveNear with zero owner")
	}
	if want <= 0 {
		return Range{}, fmt.Errorf("alloc: ReserveNear want=%d", want)
	}
	if goal < 0 || goal >= a.total {
		goal = 0
	}
	// A reservation must avoid every existing reservation, so search with
	// owner 0 semantics: all reservations are foreign.
	s, n := a.search(0, goal, a.total, want)
	if n == 0 {
		s, n = a.search(0, 0, goal, want)
	}
	if n == 0 {
		return Range{}, ErrNoSpace
	}
	r := Range{Start: s, Count: n}
	i := sort.Search(len(a.resv), func(i int) bool { return a.resv[i].End() > r.Start })
	a.resv = append(a.resv, reservation{})
	copy(a.resv[i+1:], a.resv[i:])
	a.resv[i] = reservation{Range: r, owner: owner}
	return r, nil
}

// Unreserve drops the owner's reservations intersecting r, trimming partial
// overlaps. Blocks the owner already converted with AllocExact are
// unaffected (reservations and the bitmap are independent).
func (a *Allocator) Unreserve(owner Owner, r Range) {
	out := a.resv[:0]
	for _, res := range a.resv {
		if res.owner != owner || res.End() <= r.Start || res.Start >= r.End() {
			out = append(out, res)
			continue
		}
		// Keep any parts of res outside r.
		if res.Start < r.Start {
			out = append(out, reservation{Range: Range{Start: res.Start, Count: r.Start - res.Start}, owner: owner})
		}
		if res.End() > r.End() {
			out = append(out, reservation{Range: Range{Start: r.End(), Count: res.End() - r.End()}, owner: owner})
		}
	}
	a.resv = out
}

// UnreserveAll drops every reservation held by owner. Policies call it when
// a stream is reclassified as random or its file is closed.
func (a *Allocator) UnreserveAll(owner Owner) {
	out := a.resv[:0]
	for _, res := range a.resv {
		if res.owner != owner {
			out = append(out, res)
		}
	}
	a.resv = out
}

// ConvertReserved turns the reserved range r (held by owner) into a
// persistent allocation: the blocks are marked in the bitmap and the
// reservation is dropped. This is the current-window promotion of the MiF
// on-demand algorithm.
func (a *Allocator) ConvertReserved(owner Owner, r Range) error {
	i := sort.Search(len(a.resv), func(i int) bool { return a.resv[i].End() > r.Start })
	if i == len(a.resv) || a.resv[i].owner != owner || a.resv[i].Start > r.Start || a.resv[i].End() < r.End() {
		return fmt.Errorf("alloc: ConvertReserved range [%d,+%d) not reserved by owner %d", r.Start, r.Count, owner)
	}
	a.Unreserve(owner, r)
	return a.AllocExact(owner, r)
}

// Reservations returns the owner's reserved ranges, sorted by start. It is
// a diagnostic and test hook.
func (a *Allocator) Reservations(owner Owner) []Range {
	var out []Range
	for _, res := range a.resv {
		if res.owner == owner {
			out = append(out, res.Range)
		}
	}
	return out
}

// ReservedBlocks returns the total number of reserved blocks across all
// owners.
func (a *Allocator) ReservedBlocks() int64 {
	var n int64
	for _, res := range a.resv {
		n += res.Count
	}
	return n
}
