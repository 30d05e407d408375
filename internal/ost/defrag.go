package ost

import (
	"fmt"
	"sort"

	"redbud/internal/alloc"
	"redbud/internal/crashsim"
	"redbud/internal/extent"
	"redbud/internal/iosched"
	"redbud/internal/sim"
)

// This file is the IO-server half of the online defragmentation engine
// (internal/defrag): the fragmentation report the scanner consumes and the
// crash-safe migration primitives the mover drives.
//
// A migration moves the mapped blocks of a logical range into a contiguous
// destination that the mover reserved through the allocator (so foreground
// allocation never lands inside it). The commit ordering is the classic
// defragmenter discipline: the new blocks are written and the extent map is
// committed to point at them *before* the old blocks are freed. A crash
// between the two steps leaks the old blocks (they stay allocated and
// owned, reclaimed at object deletion) but can never corrupt data — there
// is no instant at which a mapped block is unallocated or carries stale
// data. CopyRange is the first step, FreeMigrated the second;
// CheckConsistency is the fsck-style verifier of exactly that invariant.

// FragReport is the fragmentation summary of one object, everything the
// defrag scanner (and `mifctl report`) needs in a single call.
type FragReport struct {
	// Object names the reported object.
	Object ObjectID
	// Extents is the segment count — the paper's fragmentation currency.
	Extents int
	// IdealExtents is the minimum segment count the object's logical
	// shape admits: one per maximal logical run (holes split runs). A
	// perfectly defragmented object has Extents == IdealExtents.
	IdealExtents int
	// MappedBlocks is the number of mapped logical blocks.
	MappedBlocks int64
	// OwnedBlocks counts every physical block the object holds,
	// including preallocated-but-unmapped space.
	OwnedBlocks int64
	// SpanBlocks is the physical spread: the distance from the first to
	// the last physical block across all extents. A contiguous object
	// has SpanBlocks == MappedBlocks.
	SpanBlocks int64
	// Degree is the paper-style fragmentation degree: the number of
	// layout mapping units divided by the minimum needed (IdealExtents),
	// 1.0 for a perfect layout.
	Degree float64
}

// fragReport builds the report for one object.
func (s *Server) fragReport(o *object) FragReport {
	r := FragReport{
		Object:       o.id,
		Extents:      o.extents.Len(),
		MappedBlocks: o.extents.MappedBlocks(),
		OwnedBlocks:  o.owned.Blocks(),
	}
	exts := o.extents.Extents()
	if len(exts) > 0 {
		minPhys, maxPhys := exts[0].Physical, exts[0].PhysicalEnd()
		r.IdealExtents = 1
		for i, e := range exts {
			if e.Physical < minPhys {
				minPhys = e.Physical
			}
			if e.PhysicalEnd() > maxPhys {
				maxPhys = e.PhysicalEnd()
			}
			if i > 0 && exts[i-1].LogicalEnd() != e.Logical {
				r.IdealExtents++
			}
		}
		r.SpanBlocks = maxPhys - minPhys
		r.Degree = float64(r.Extents) / float64(r.IdealExtents)
	}
	return r
}

// FragReport returns the fragmentation summary of one object.
func (s *Server) FragReport(id ObjectID) (FragReport, error) {
	o, err := s.object(id)
	if err != nil {
		return FragReport{}, err
	}
	return s.fragReport(o), nil
}

// FragReportAll returns the fragmentation summary of every object on the
// server, sorted by object ID for deterministic scans.
func (s *Server) FragReportAll() []FragReport {
	out := make([]FragReport, 0, len(s.objects))
	for _, o := range s.objects {
		out = append(out, s.fragReport(o))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// NextMappedExtent returns the first mapped piece of the object at or
// after logical block from (clipped to start there), with ok false when
// nothing further is mapped. The mover walks objects with it one slice at
// a time, so a concurrent truncate or extend is picked up between slices.
func (s *Server) NextMappedExtent(id ObjectID, from int64) (extent.Extent, bool, error) {
	o, err := s.object(id)
	if err != nil {
		return extent.Extent{}, false, err
	}
	e, ok := o.extents.NextAt(from)
	return e, ok, nil
}

// PendingRequests returns the number of foreground device requests queued
// but not yet flushed. The defrag mover checks it to yield to foreground
// traffic.
func (s *Server) PendingRequests() int {
	return len(s.queue)
}

// CopyRange migrates the object's logical range [logical, logical+count) —
// which must be fully mapped — into the physical destination dst, which the
// caller must hold reserved under owner on this server's allocator and
// whose length must equal count. It performs the first, crash-safe half of
// a migration: read the old blocks, convert the reservation and write the
// new ones, then commit the extent map to the new location. The old
// physical extents are returned still allocated; the caller completes the
// migration with FreeMigrated (a crash in between leaks them, never
// corrupts). The returned cost is the device service time of the copy.
func (s *Server) CopyRange(id ObjectID, owner alloc.Owner, logical, count int64, dst alloc.Range) (sim.Ns, []extent.Extent, error) {
	if logical < 0 || count <= 0 {
		return 0, nil, fmt.Errorf("ost%d: invalid migrate range [%d,+%d)", s.id, logical, count)
	}
	if dst.Count != count {
		return 0, nil, fmt.Errorf("ost%d: migrate destination [%d,+%d) does not match range length %d",
			s.id, dst.Start, dst.Count, count)
	}
	sp, prev := s.startOp(spanMigrate)
	sp.AnnotateInt(attrObject, int64(id))
	sp.AnnotateInt(attrBlocks, int64(count))
	defer s.endOp(sp, prev)
	o, err := s.object(id)
	if err != nil {
		return 0, nil, err
	}
	// Buffered writes of the object must be placed first, or the copy
	// would miss data that logically precedes it.
	if err := s.flushObject(o); err != nil {
		return 0, nil, err
	}
	old := o.extents.LookupRange(logical, count)
	var mapped int64
	for _, e := range old {
		mapped += e.Count
	}
	if mapped != count {
		return 0, nil, fmt.Errorf("ost%d: migrate range [%d,+%d) of object %d only %d blocks mapped",
			s.id, logical, count, id, mapped)
	}

	// Claim the destination: the reservation becomes a persistent
	// allocation, atomically with respect to foreground allocation.
	if err := s.alloc.ConvertReserved(owner, dst); err != nil {
		return 0, nil, fmt.Errorf("ost%d: migrate object %d: %w", s.id, id, err)
	}
	// Crash point: the destination claim persisted but nothing owns it yet
	// — an orphaned allocation the post-crash scrub must reclaim.
	if _, ok := s.crash.Hit(crashsim.PtOstMigrateClaim, dst.Count); ok {
		s.crash.Kill()
	}

	// Device I/O: read every old extent that carries data, write its new
	// home. The batch runs through the elevator directly — defrag I/O
	// must not ride the foreground queue, whose batching thresholds
	// belong to client traffic.
	var reqs []iosched.Request
	pos := dst.Start
	for _, e := range old {
		if e.Flags&extent.FlagPrealloc == 0 {
			reqs = append(reqs, iosched.Request{Start: e.Physical, Count: e.Count, Write: false})
			reqs = append(reqs, iosched.Request{Start: pos, Count: e.Count, Write: true})
		}
		pos += e.Count
	}
	// Crash point: power fails during the migration copy. The extent map
	// still names the old location and the old data is untouched, so the
	// object survives intact; the claimed destination is an orphan.
	if s.crash != nil {
		var n int64
		for _, r := range reqs {
			if r.Write {
				n += r.Count
			}
		}
		if _, ok := s.crash.Hit(crashsim.PtOstMigrateCopy, n); ok {
			s.crash.Kill()
		}
	}
	var cost sim.Ns
	if len(reqs) > 0 {
		cost = s.sched.RunTraced(s.disk, reqs, s.curSpan)
	}

	// Commit: repoint the map at the new blocks. Old blocks stay
	// allocated (and owned) until FreeMigrated — the crash-safe order.
	removed := o.extents.Delete(logical, count)
	pos = dst.Start
	for _, e := range removed {
		ne := extent.Extent{Logical: e.Logical, Physical: pos, Count: e.Count, Flags: e.Flags}
		if err := o.extents.Insert(ne); err != nil {
			return cost, nil, fmt.Errorf("ost%d: migrate commit object %d: %w", s.id, id, err)
		}
		for i := int64(0); i < e.Count; i++ {
			if l := e.Logical + i; o.written.has(l) {
				s.tags.set(pos+i, id, l)
			}
		}
		pos += e.Count
	}
	o.owned.Add(dst)
	if end := dst.End(); end > o.goal {
		o.goal = end
	}
	// Crash point: the commit persisted — map, tags and ownership all name
	// the new home — but the old extents were never freed. They leak (owned
	// but unmapped) until the scrub reclaims them; the data is never at
	// risk, which is the point of the new-before-free ordering.
	if _, ok := s.crash.Hit(crashsim.PtOstMigrateCommit, count); ok {
		s.crash.Kill()
	}
	return cost, removed, nil
}

// FreeMigrated completes a migration started by CopyRange: the old
// physical extents are released to the allocator, dropped from the
// object's owned set and the prefetch cache, and their data tags cleared.
func (s *Server) FreeMigrated(id ObjectID, old []extent.Extent) error {
	o, err := s.object(id)
	if err != nil {
		return err
	}
	// Crash point: the free list of a committed migration is torn.
	// Damage.Persisted counts the old extents released before the failure;
	// the rest leak until the scrub reclaims them.
	if dmg, ok := s.crash.Hit(crashsim.PtOstMigrateFree, int64(len(old))); ok {
		for i := int64(0); i < dmg.Persisted && i < int64(len(old)); i++ {
			e := old[i]
			r := alloc.Range{Start: e.Physical, Count: e.Count}
			if err := s.alloc.Free(r); err != nil {
				panic(err)
			}
			o.owned.Remove(r)
			s.prefetched.Remove(r)
			s.tags.clearRange(r.Start, r.End())
		}
		s.crash.Kill()
	}
	for _, e := range old {
		r := alloc.Range{Start: e.Physical, Count: e.Count}
		if err := s.alloc.Free(r); err != nil {
			return fmt.Errorf("ost%d: migrate free object %d: %w", s.id, id, err)
		}
		o.owned.Remove(r)
		s.prefetched.Remove(r)
		s.tags.clearRange(r.Start, r.End())
	}
	return nil
}

// CheckReport is the result of an IO-server consistency walk.
type CheckReport struct {
	// Objects and MappedBlocks size the walk.
	Objects      int
	MappedBlocks int64
	// LeakedBlocks counts physical blocks that are owned and allocated
	// but not mapped — preallocated windows and half-completed
	// migrations. Leaks waste space but are not corruption; deletion
	// reclaims them.
	LeakedBlocks int64
	// Problems lists every invariant violation found.
	Problems []string
}

// Clean reports whether the walk found no problems.
func (r *CheckReport) Clean() bool { return len(r.Problems) == 0 }

func (r *CheckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// CheckConsistency walks every object and verifies the server's structural
// invariants, the OST-side analogue of miffsck: extent maps well-formed;
// every mapped block allocated in the bitmap, inside its object's owned
// set, and mapped by no other object; every written block carrying the
// data that was stored at its logical address; the allocator's used count
// equal to the blocks the objects own. It is how the crash-safety
// of the migration ordering is verified: after CopyRange without
// FreeMigrated the walk must stay clean, with the old blocks reported as
// leaks.
func (s *Server) CheckConsistency() CheckReport {
	var rep CheckReport
	owner := make(map[int64]ObjectID)
	var ownedBlocks int64
	for _, id := range s.sortedObjectIDs() {
		o := s.objects[id]
		rep.Objects++
		if err := o.extents.Validate(); err != nil {
			rep.problemf("object %d: %v", id, err)
		}
		var mapped int64
		for _, e := range o.extents.Extents() {
			mapped += e.Count
			r := alloc.Range{Start: e.Physical, Count: e.Count}
			if !s.alloc.Allocated(r) {
				rep.problemf("object %d: extent %v not allocated in bitmap", id, e)
			}
			if !o.owned.Contains(r) {
				rep.problemf("object %d: extent %v outside owned set", id, e)
			}
			for b := r.Start; b < r.End(); b++ {
				if prev, ok := owner[b]; ok {
					rep.problemf("object %d: block %d also mapped by object %d", id, b, prev)
				}
				owner[b] = id
			}
			for i := int64(0); i < e.Count; i++ {
				l := e.Logical + i
				if !o.written.has(l) {
					continue
				}
				got, ok := s.tags.get(e.Physical + i)
				if !ok || got.obj != id || got.logical != l {
					rep.problemf("object %d: logical %d (physical %d) carries %+v", id, l, e.Physical+i, got)
				}
			}
		}
		rep.MappedBlocks += mapped
		rep.LeakedBlocks += o.owned.Blocks() - mapped
		ownedBlocks += o.owned.Blocks()
		for _, r := range o.owned.Ranges() {
			if !s.alloc.Allocated(r) {
				rep.problemf("object %d: owned range [%d,+%d) not allocated in bitmap", id, r.Start, r.Count)
			}
		}
	}
	// Every allocated block belongs to an object: reservations are soft and
	// never touch the bitmap, so the allocator's used count is Σ owned.
	if used := s.cfg.Blocks - s.alloc.FreeBlocks(); used != ownedBlocks {
		rep.problemf("allocator counts %d used blocks, objects own %d", used, ownedBlocks)
	}
	return rep
}
