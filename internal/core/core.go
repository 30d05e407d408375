// Package core implements the paper's primary contribution: the MiF
// allocation policies that decide where on disk the blocks of an extending
// file land.
//
// Four policies are provided, matching the evaluation's comparison set:
//
//   - OnDemand — the MiF on-demand preallocation: per-stream current and
//     sequential windows, the layout_miss / pre_alloc_layout triggers,
//     exponential window growth, and a miss threshold that turns
//     preallocation off for random streams (paper §3).
//   - Reservation — the ext4/GPFS-style baseline: one reservation window
//     per file, handed out in arrival order to whichever stream writes
//     next. This is the allocator whose interleaving Figure 1(a) shows.
//   - Vanilla — no preallocation at all; every write allocates near the
//     file tail at request time.
//   - Static — fallocate(2): the whole file is persistently allocated up
//     front, requiring foreknowledge of the file size.
//
// A Policy instance manages one file component (one stripe object on one
// IO server). The embedded-directory half of MiF lives with the metadata
// file system in internal/mdfs; this package is the data path.
package core

import (
	"fmt"

	"redbud/internal/alloc"
)

// StreamID identifies one write stream. The paper constructs it "by
// combining the client ID and the thread PID on client".
type StreamID struct {
	Client uint32
	PID    uint32
}

// String renders the stream as client.pid.
func (s StreamID) String() string { return fmt.Sprintf("%d.%d", s.Client, s.PID) }

// Window is a preallocation window: a contiguous physical range backing a
// contiguous logical range of the file. Both the current and the sequential
// window of the paper's core data structure have this shape ("a disk block
// number, a file logic block number and length").
type Window struct {
	Disk    int64 // first physical block
	Logical int64 // first file logical block
	Len     int64 // length in blocks
}

// LogicalEnd returns the logical block just past the window.
func (w Window) LogicalEnd() int64 { return w.Logical + w.Len }

// DiskEnd returns the physical block just past the window.
func (w Window) DiskEnd() int64 { return w.Disk + w.Len }

// ContainsLogical reports whether the logical range [l, l+c) lies fully
// inside the window.
func (w Window) ContainsLogical(l, c int64) bool {
	return w.Len > 0 && l >= w.Logical && l+c <= w.LogicalEnd()
}

// PhysicalFor translates a logical block inside the window to its physical
// block.
func (w Window) PhysicalFor(l int64) int64 { return w.Disk + (l - w.Logical) }

// Range returns the window's physical range.
func (w Window) Range() alloc.Range { return alloc.Range{Start: w.Disk, Count: w.Len} }

// Placement is one allocation decision: the physical blocks chosen to back
// the logical range [Logical, Logical+Count). Preallocated marks blocks the
// policy persisted beyond the bytes actually written (unwritten extents).
type Placement struct {
	Logical      int64
	Physical     int64
	Count        int64
	Preallocated bool
}

// BlockSource is the allocator interface the policies drive. It is
// implemented by *alloc.Allocator; tests substitute instrumented fakes.
type BlockSource interface {
	AllocNear(owner alloc.Owner, goal, want int64) (start, got int64, err error)
	AllocExact(owner alloc.Owner, r alloc.Range) error
	ReserveNear(owner alloc.Owner, goal, want int64) (alloc.Range, error)
	Unreserve(owner alloc.Owner, r alloc.Range)
	UnreserveAll(owner alloc.Owner)
	ConvertReserved(owner alloc.Owner, r alloc.Range) error
	Free(r alloc.Range) error
	NewOwner() alloc.Owner
}

var _ BlockSource = (*alloc.Allocator)(nil)

// Policy decides the physical placement of extending writes for one file
// component.
type Policy interface {
	// Name returns the policy's short name as used in benchmark tables.
	Name() string
	// Place chooses physical blocks for the extending write of the
	// logical range [logical, logical+count) by stream. goal is the
	// caller's locality hint, normally the physical end of the file's
	// last extent. The returned slice may reuse a buffer owned by the
	// policy and is only valid until its next Place call; callers that
	// retain placements must copy them.
	Place(stream StreamID, logical, count, goal int64) ([]Placement, error)
	// Close releases any temporary reservations the policy holds.
	// Persistently preallocated blocks stay allocated, as the paper
	// requires ("persistent across reboots").
	Close()
}

// allocRun allocates exactly count blocks near goal, in as few contiguous
// runs as the free-space layout allows, and appends the resulting
// placements. It is the shared fallback path of every policy.
func allocRun(src BlockSource, owner alloc.Owner, logical, count, goal int64, out []Placement) ([]Placement, error) {
	for count > 0 {
		start, got, err := src.AllocNear(owner, goal, count)
		if err != nil {
			return out, err
		}
		out = append(out, Placement{Logical: logical, Physical: start, Count: got})
		logical += got
		count -= got
		goal = start + got
	}
	return out, nil
}
