package ost

import (
	"slices"

	"redbud/internal/alloc"
	"redbud/internal/crashsim"
	"redbud/internal/disk"
)

// Power-fail model of the IO server. The durable state of an OST is its
// allocator bitmap, extent maps, owned sets, written bitmaps, and data
// tags — the metadata a real server journals (plus the block contents the
// tags stand in for). The volatile state is the device queue, the
// delayed-allocation buffers, the prefetch cache, and the policies' soft
// reservations.
//
// The write path takes a modeling shortcut: tags and written bits are set
// at enqueue time, before the queued request reaches the media. A crash
// sweep must not inherit that shortcut, so while an injector is attached
// the enqueue path records a pre-image per block (old tag, old written
// bit). PowerFail rolls the pre-images of every unpersisted queued write
// back, which reconstructs exactly the durable state the media held —
// then Scrub reclaims what the crash window leaked (allocated-but-unowned
// orphans from a torn migration claim, owned-but-unmapped leaks from a
// torn free) and demotes written blocks whose tags the damage plan tore,
// so an unacknowledged block that never fully persisted reads as a hole
// instead of serving torn data.

// writePreImage is one block's durable state before an enqueued write
// updated it.
type writePreImage struct {
	phys       int64
	oldSlot    tagSlot
	obj        ObjectID
	logical    int64
	wasWritten bool
}

// flushDamage is the damage plan of a power failure that fired mid
// media-burst, resolved against the queue at fire time.
type flushDamage struct {
	// persisted is the set of physical blocks (the burst's leading
	// prefix) that reached the media.
	persisted map[int64]bool
	// victimPhys, when haveVictim, was overwritten by the payload
	// carrying victimTag (the first unpersisted write, misdirected).
	victimPhys int64
	victimTag  tagSlot
	haveVictim bool
}

// SetCrashInjector attaches the sweep's injector; the write path starts
// recording pre-images so a PowerFail can roll unpersisted writes back.
func (s *Server) SetCrashInjector(in *crashsim.Injector) {
	s.crash = in
}

// recordPreImage captures one block's durable state before the
// write path updates it. Callers have checked s.crash.
func (s *Server) recordPreImage(o *object, phys, logical int64) {
	s.preimg = append(s.preimg, writePreImage{
		phys:       phys,
		oldSlot:    s.tags.slotAt(phys),
		obj:        o.id,
		logical:    logical,
		wasWritten: o.written.has(logical),
	})
}

// planFlushDamage resolves a damage plan against the queued write
// blocks, in submission order, at the moment the armed flush point fired.
// Tags still hold their enqueue-time values here, so the misdirected
// payload's tag is read off the source block before any rollback.
func (s *Server) planFlushDamage(dmg disk.Damage) {
	fd := &flushDamage{persisted: make(map[int64]bool)}
	var order []int64
	for _, r := range s.queue {
		if !r.Write {
			continue
		}
		for i := int64(0); i < r.Count; i++ {
			order = append(order, r.Start+i)
		}
	}
	for i := int64(0); i < dmg.Persisted && i < int64(len(order)); i++ {
		fd.persisted[order[i]] = true
	}
	if dmg.Victim >= 0 && dmg.Victim < int64(len(order)) && dmg.Persisted < int64(len(order)) {
		fd.victimPhys = order[dmg.Victim]
		fd.victimTag = s.tags.slotAt(order[dmg.Persisted])
		fd.haveVictim = true
	}
	s.flushCrash = fd
}

// sortedObjectIDs returns the object ids in deterministic order.
func (s *Server) sortedObjectIDs() []ObjectID {
	ids := make([]ObjectID, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// PowerFail models the server losing power: every queued write that did
// not persist (per the fired damage plan; all of them when the crash hit
// outside a flush) is rolled back to its pre-image, the misdirected
// payload is applied, and all volatile state — queue, delalloc buffers,
// prefetch cache, soft reservations — is dropped. The recovery sequence
// calls it before Scrub.
func (s *Server) PowerFail() {
	fd := s.flushCrash
	// Roll back unpersisted enqueued writes, newest first, so duplicate
	// writes to one block unwind to the oldest pre-image.
	for i := len(s.preimg) - 1; i >= 0; i-- {
		p := s.preimg[i]
		if fd != nil && fd.persisted[p.phys] {
			continue
		}
		s.tags.setSlot(p.phys, p.oldSlot)
		if !p.wasWritten {
			if o, ok := s.objects[p.obj]; ok {
				o.written.clear(p.logical)
			}
		}
	}
	if fd != nil && fd.haveVictim {
		s.tags.setSlot(fd.victimPhys, fd.victimTag)
	}
	s.preimg = nil
	s.flushCrash = nil
	s.queue = s.queue[:0]
	s.pendingRead = 0
	s.pendingWrite = 0
	s.buffered = nil
	s.bufferedBlocks = 0
	s.prefetched = alloc.RangeSet{}
	s.rebuildPolicies()
}

// ScrubReport summarizes one post-crash scrub.
type ScrubReport struct {
	// OST is the server's index.
	OST int
	// DamagedBlocks counts written blocks demoted to holes because their
	// tags no longer carried their data (torn or misdirected writes).
	DamagedBlocks int64
	// Damaged lists each object's demoted logical runs — the blocks a
	// replicated recovery must re-source from a clean copy.
	Damaged map[ObjectID][]alloc.Range
	// DanglingWritten counts written bits cleared because no mapping
	// backed them (a truncate torn before its written-set trim).
	DanglingWritten int64
	// LeakedFreed counts owned-but-unmapped blocks reclaimed (torn
	// frees, clipped preallocations).
	LeakedFreed int64
	// OrphanFreed counts allocated-but-unowned blocks reclaimed (a
	// migration claim torn before the ownership record).
	OrphanFreed int64
}

// Scrub is the OST-side fsck a recovery runs after PowerFail: verify
// every written block's tag (demoting torn blocks to holes), clear
// written bits with no backing mapping, then reclaim leaked
// (owned-but-unmapped) and orphaned (allocated-but-unowned) blocks. After
// a clean Scrub, CheckConsistency reports no problems and zero leaks.
func (s *Server) Scrub() (ScrubReport, error) {
	rep := ScrubReport{OST: s.id, Damaged: make(map[ObjectID][]alloc.Range)}
	ownedAll := alloc.RangeSet{}
	for _, id := range s.sortedObjectIDs() {
		o := s.objects[id]
		// Demote written blocks whose tags were torn away.
		for _, e := range o.extents.Extents() {
			for i := int64(0); i < e.Count; i++ {
				l := e.Logical + i
				if !o.written.has(l) {
					continue
				}
				got, ok := s.tags.get(e.Physical + i)
				if ok && got.obj == id && got.logical == l {
					continue
				}
				o.written.clear(l)
				rep.DamagedBlocks++
				runs := rep.Damaged[id]
				if n := len(runs); n > 0 && runs[n-1].End() == l {
					runs[n-1].Count++
				} else {
					runs = append(runs, alloc.Range{Start: l, Count: 1})
				}
				rep.Damaged[id] = runs
			}
		}
		// Clear written bits with no mapping behind them.
		var wruns []alloc.Range
		wruns = o.written.appendRuns(wruns)
		for _, wr := range wruns {
			for l := wr.Start; l < wr.End(); l++ {
				if _, ok := o.extents.Lookup(l); !ok {
					o.written.clear(l)
					rep.DanglingWritten++
				}
			}
		}
		// Reclaim leaks: owned blocks no extent maps.
		mapped := alloc.RangeSet{}
		for _, e := range o.extents.Extents() {
			mapped.Add(alloc.Range{Start: e.Physical, Count: e.Count})
		}
		var leaks []alloc.Range
		for _, r := range o.owned.Ranges() {
			start := int64(-1)
			for b := r.Start; b <= r.End(); b++ {
				inLeak := b < r.End() && !mapped.Contains(alloc.Range{Start: b, Count: 1})
				if inLeak && start < 0 {
					start = b
				}
				if !inLeak && start >= 0 {
					leaks = append(leaks, alloc.Range{Start: start, Count: b - start})
					start = -1
				}
			}
		}
		for _, leak := range leaks {
			if err := s.alloc.Free(leak); err != nil {
				return rep, err
			}
			o.owned.Remove(leak)
			s.tags.clearRange(leak.Start, leak.End())
			s.prefetched.Remove(leak)
			rep.LeakedFreed += leak.Count
		}
		for _, r := range o.owned.Ranges() {
			ownedAll.Add(r)
		}
	}
	// Reclaim orphans: allocated in the bitmap, owned by no object.
	var runs []alloc.Range
	runs = s.alloc.AppendAllocatedRuns(runs)
	for _, r := range runs {
		start := int64(-1)
		for b := r.Start; b <= r.End(); b++ {
			orphan := b < r.End() && !ownedAll.Contains(alloc.Range{Start: b, Count: 1})
			if orphan && start < 0 {
				start = b
			}
			if !orphan && start >= 0 {
				run := alloc.Range{Start: start, Count: b - start}
				if err := s.alloc.Free(run); err != nil {
					return rep, err
				}
				s.tags.clearRange(run.Start, run.End())
				s.prefetched.Remove(run)
				rep.OrphanFreed += run.Count
				start = -1
			}
		}
	}
	return rep, nil
}
