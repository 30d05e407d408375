// Package ost implements the Redbud IO server (object storage target): the
// component that owns one disk, its free-space allocator, its I/O scheduler
// queue, and the per-object allocation policy.
//
// In Redbud "shared disks are actual storage depositories for file data ...
// divided into parallel allocation groups (PAG) for parallel management of
// free space", and "in some parallel file systems, allocator is located in
// their IO servers" — this package is that allocator-side.
package ost

import (
	"errors"
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/extent"
	"redbud/internal/iosched"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// ObjectID names one file component stored on a server. The metadata server
// assigns IDs; they are unique per file per OST.
type ObjectID uint64

// PolicyFactory builds the allocation policy for a new object. sizeHint is
// the declared file size in blocks (used by the static/fallocate policy);
// zero means unknown.
type PolicyFactory func(src core.BlockSource, sizeHint int64) core.Policy

// Config holds the construction parameters of one IO server.
type Config struct {
	// Disk is the device model configuration.
	Disk disk.Config
	// Blocks is the device size in blocks.
	Blocks int64
	// GroupBlocks is the parallel-allocation-group size in blocks.
	GroupBlocks int64
	// QueueDepth is the elevator reorder window in requests.
	QueueDepth int
	// BatchBlocks flushes the device queue once this many blocks of
	// *reads* are pending; reads are synchronous, so the reorder window
	// is bounded by what clients keep outstanding. Zero selects the
	// default.
	BatchBlocks int64
	// WriteBatchBlocks flushes once this many blocks of writes are
	// pending. Writes pass through writeback caching, which aggregates
	// far more than the synchronous read path before the disk sees
	// them. Zero selects the default.
	WriteBatchBlocks int64
	// ReadAheadBlocks is the per-reader prefetch window: a read whose
	// blocks continue inside one physical extent is extended up to this
	// many blocks, and later reads of the prefetched range are served
	// from memory. Readahead is what converts logical sequentiality
	// into large disk requests — and what fragmented extents defeat.
	ReadAheadBlocks int64
	// PrefetchCacheBlocks caps the prefetch cache per server.
	PrefetchCacheBlocks int64
	// DelayedAllocation postpones block allocation to flush time,
	// coalescing buffered writes — the ext4/XFS-style alternative the
	// paper positions on-demand preallocation against (§2).
	DelayedAllocation bool
	// DelayedFlushBlocks is the writeback threshold that forces a flush
	// of buffered writes. Zero selects the default (8192).
	DelayedFlushBlocks int64
}

// DefaultConfig returns an IO server over a 4 GiB device with 128 MiB
// allocation groups and a 128-request elevator window.
func DefaultConfig() Config {
	return Config{
		Disk:                disk.DefaultConfig(),
		Blocks:              1 << 20,
		GroupBlocks:         32768,
		QueueDepth:          0, // sort whole flush batches
		BatchBlocks:         128,
		WriteBatchBlocks:    8192,
		ReadAheadBlocks:     64, // 256 KiB prefetch window
		PrefetchCacheBlocks: 16384,
	}
}

// tag identifies the data stored in one physical block, for end-to-end
// verification ("reads them back to verify the correctness of the data").
type tag struct {
	obj     ObjectID
	logical int64
}

// object is the per-file-component state on one server.
type object struct {
	id     ObjectID
	policy core.Policy
	// factory and sizeHint rebuild the policy after a restart or a crash.
	factory  PolicyFactory
	sizeHint int64
	extents  extent.Map
	// owned is every physical range the policy handed out, including
	// preallocated-but-unwritten blocks, so deletion frees exactly the
	// space the object consumed.
	owned alloc.RangeSet
	// written marks logical blocks that carry data.
	written blockSet
	goal    int64
}

// Server is one IO server.
type Server struct {
	id  int
	cfg Config

	disk         *disk.Disk
	sched        *iosched.Elevator
	alloc        *alloc.Allocator
	objects      map[ObjectID]*object
	tags         tagStore
	queue        []iosched.Request
	pendingRead  int64
	pendingWrite int64
	prefetched   alloc.RangeSet
	prefetchHits int64

	// Delayed-allocation write buffers (nil unless enabled).
	buffered       map[ObjectID][]bufWrite
	bufferedBlocks int64

	// Per-request scratch buffers, reused across requests so the per-block
	// hot paths resolve extent ranges without allocating. lrScratch backs the
	// top-level range resolution of one write/read; innerScratch backs the
	// nested lookups beneath it (gap probing while mapping, readahead
	// containment) whose results are consumed before the next nested call;
	// gapScratch backs the prefetch-cache gap list of one read piece.
	lrScratch    []extent.Extent
	innerScratch []extent.Extent
	gapScratch   []alloc.Range

	// flushHist, when attached, observes the device cost of every queue
	// flush. tracer records client-operation spans; traceParent is the PFS
	// operation span currently being serviced, and curSpan the OST op span
	// that any flush it triggers nests under.
	flushHist   *telemetry.Histogram
	tracer      *telemetry.Tracer
	traceParent telemetry.SpanID
	curSpan     telemetry.SpanID

	// Crash-sweep state (see crash.go): crash arms the named crash
	// points; preimg records enqueued writes' durable pre-images while an
	// injector is attached; flushCrash is the fired damage plan PowerFail
	// applies.
	crash      *crashsim.Injector
	preimg     []writePreImage
	flushCrash *flushDamage
}

// NewServer builds IO server id with the given configuration.
func NewServer(id int, cfg Config) *Server {
	if cfg.BatchBlocks <= 0 {
		cfg.BatchBlocks = 512
	}
	if cfg.WriteBatchBlocks <= 0 {
		cfg.WriteBatchBlocks = 8192
	}
	if cfg.DelayedFlushBlocks <= 0 {
		cfg.DelayedFlushBlocks = 8192
	}
	return &Server{
		id:      id,
		cfg:     cfg,
		disk:    disk.New(cfg.Disk, cfg.Blocks),
		sched:   iosched.NewElevator(cfg.QueueDepth),
		alloc:   alloc.New(cfg.Blocks, cfg.GroupBlocks),
		tags:    newTagStore(cfg.Blocks),
		objects: make(map[ObjectID]*object),
	}
}

// ID returns the server's index.
func (s *Server) ID() int { return s.id }

// Disk exposes the underlying device model for measurement.
func (s *Server) Disk() *disk.Disk { return s.disk }

// Allocator exposes the server's allocator for measurement.
func (s *Server) Allocator() *alloc.Allocator { return s.alloc }

// Instrument publishes the server's queue and prefetch state into the
// registry and recursively instruments the disk and the elevator it owns.
// Gauges read the live queue at snapshot time.
func (s *Server) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	s.flushHist = reg.Histogram("ost_flush_ns", labels)
	s.disk.Instrument(reg, labels.With("layer", "disk"))
	s.sched.Instrument(reg, labels.With("layer", "iosched"))
	s.alloc.Instrument(reg, labels.With("layer", "alloc"))
	reg.GaugeFunc("ost_queue_requests", labels, func() int64 { return int64(len(s.queue)) })
	reg.GaugeFunc("ost_pending_read_blocks", labels, func() int64 { return s.pendingRead })
	reg.GaugeFunc("ost_pending_write_blocks", labels, func() int64 { return s.pendingWrite })
	reg.GaugeFunc("ost_buffered_blocks", labels, func() int64 { return s.BufferedBlocks() })
	reg.GaugeFunc("ost_objects", labels, func() int64 { return s.ObjectCount() })
	reg.CounterFunc("ost_prefetch_hit_blocks", labels, func() int64 { return s.PrefetchHits() })
}

// SetTracer attaches (or with nil detaches) the span tracer, propagating it
// to the elevator so dispatches and per-request disk accesses are traced.
func (s *Server) SetTracer(t *telemetry.Tracer) {
	s.tracer = t
	s.sched.SetTracer(t)
}

// SetTraceParent declares the client-operation span under which subsequent
// OST operations nest; zero clears it. The PFS mount sets it before issuing
// each operation.
func (s *Server) SetTraceParent(id telemetry.SpanID) { s.traceParent = id }

// Span layers, span names and attribute keys, interned once per process.
var (
	layerOST    = telemetry.Intern("ost")
	spanWrite   = telemetry.Intern("write")
	spanRead    = telemetry.Intern("read")
	spanFlush   = telemetry.Intern("flush")
	spanFsync   = telemetry.Intern("fsync")
	spanMigrate = telemetry.Intern("migrate")
	attrOST     = telemetry.Intern("ost")
	attrObject  = telemetry.Intern("object")
	attrBlocks  = telemetry.Intern("blocks")
)

// startOp opens an "ost" span for one client operation and makes it
// the parent of any device flush the operation triggers, returning the span
// and the previous flush parent to restore. Safe (and a no-op) without a
// tracer.
func (s *Server) startOp(name telemetry.Sym) (telemetry.ActiveSpan, telemetry.SpanID) {
	sp := s.tracer.Begin(layerOST, name, s.traceParent)
	sp.AnnotateInt(attrOST, int64(s.id))
	prev := s.curSpan
	s.curSpan = sp.ID()
	return sp, prev
}

// endOp closes an operation span opened by startOp and restores
// the previous flush parent.
func (s *Server) endOp(sp telemetry.ActiveSpan, prev telemetry.SpanID) {
	s.curSpan = prev
	sp.End()
}

// CreateObject registers a new object whose blocks will be placed by the
// policy the factory builds. Creating an existing object is an error.
func (s *Server) CreateObject(id ObjectID, factory PolicyFactory, sizeHint int64) error {
	if _, ok := s.objects[id]; ok {
		return fmt.Errorf("ost%d: object %d already exists", s.id, id)
	}
	// Crash point: the cluster dies with this component's object not yet
	// created — a file create torn across servers.
	if _, ok := s.crash.Hit(crashsim.PtOstCreateObject, 0); ok {
		s.crash.Kill()
	}
	s.objects[id] = &object{
		id:       id,
		policy:   factory(s.alloc, sizeHint),
		factory:  factory,
		sizeHint: sizeHint,
	}
	return nil
}

// rebuildPolicies gives every object a fresh policy built as its create
// built it, after its old one releases its soft reservations: the streams
// start from layout misses, and a static object keeps its declared size.
// Restart and PowerFail run it.
func (s *Server) rebuildPolicies() {
	for _, id := range s.sortedObjectIDs() {
		o := s.objects[id]
		o.policy.Close()
		o.policy = o.factory(s.alloc, o.sizeHint)
	}
}

// Restart simulates an IO-server reboot. Durable state survives: the block
// bitmap, the extent maps, preallocated (unwritten) extents — "preallocated
// blocks in the current window are persistent across system reboot". The
// volatile state does not: sequential-window reservations are dropped,
// write buffers and the prefetch cache are discarded, and each object gets
// a fresh policy whose streams start from layout misses.
func (s *Server) Restart() {
	s.flush() // a clean shutdown; crash loss is modeled by callers dropping buffers first
	s.rebuildPolicies()
	s.buffered = nil
	s.bufferedBlocks = 0
	s.prefetched = alloc.RangeSet{}
	s.prefetchHits = 0
}

// ErrNoObject is the error of an op on an object the server does not hold.
var ErrNoObject = errors.New("no such object")

// object looks up an object.
func (s *Server) object(id ObjectID) (*object, error) {
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("ost%d: %w %d", s.id, ErrNoObject, id)
	}
	return o, nil
}

// Write stores count blocks at the object's logical offset on behalf of
// stream, allocating any unmapped blocks through the object's policy, and
// enqueues the device writes.
func (s *Server) Write(id ObjectID, stream core.StreamID, logical, count int64) error {
	if logical < 0 || count <= 0 {
		return fmt.Errorf("ost%d: invalid write [%d,+%d)", s.id, logical, count)
	}
	sp, prev := s.startOp(spanWrite)
	sp.AnnotateInt(attrObject, int64(id))
	sp.AnnotateInt(attrBlocks, int64(count))
	defer s.endOp(sp, prev)
	o, err := s.object(id)
	if err != nil {
		return err
	}
	if s.cfg.DelayedAllocation {
		s.bufferWrite(o, stream, logical, count)
		err = s.checkBufferPressure()
	} else {
		err = s.writeThrough(o, stream, logical, count)
	}
	if err != nil {
		return err
	}
	// Crash point: the write was accepted but sits in the volatile queue
	// (or the delalloc buffer) — power loss here loses it whole, which is
	// allowed for anything not yet fsynced.
	if _, ok := s.crash.Hit(crashsim.PtOstWriteQueue, count); ok {
		s.crash.Kill()
	}
	return nil
}

// writeThrough allocates (through the policy) and queues the device
// writes for one write.
func (s *Server) writeThrough(o *object, stream core.StreamID, logical, count int64) error {
	if err := s.ensureMapped(o, stream, logical, count); err != nil {
		return err
	}
	s.lrScratch = o.extents.AppendRange(s.lrScratch[:0], logical, count)
	for _, e := range s.lrScratch {
		// Pre-images must be recorded before enqueue: enqueue can
		// cross the queue-depth threshold and trigger a flush, and the
		// flush fire point resolves damage against the queue it sees.
		if s.crash != nil {
			for i := int64(0); i < e.Count; i++ {
				s.recordPreImage(o, e.Physical+i, e.Logical+i)
			}
		}
		s.enqueue(iosched.Request{Start: e.Physical, Count: e.Count, Write: true})
		for i := int64(0); i < e.Count; i++ {
			s.tags.set(e.Physical+i, o.id, e.Logical+i)
		}
		o.written.setRange(e.Logical, e.Count)
	}
	return nil
}

// ensureMapped allocates and maps any unmapped blocks of the logical
// range.
func (s *Server) ensureMapped(o *object, stream core.StreamID, logical, count int64) error {
	end := logical + count
	pos := logical
	for pos < end {
		// covered is consumed before the next nested lookup (Place and
		// insertPlacements reuse the same scratch).
		covered := o.extents.AppendRange(s.innerScratch[:0], pos, end-pos)
		s.innerScratch = covered
		gapEnd := end
		if len(covered) > 0 {
			if covered[0].Logical <= pos {
				pos = covered[0].LogicalEnd()
				continue
			}
			gapEnd = covered[0].Logical
		}
		placements, err := o.policy.Place(stream, pos, gapEnd-pos, o.goal)
		if err != nil {
			// Place hands back the runs it took before the source ran dry
			// together with the error. They are allocated: the object gets
			// them (mapped, unwritten) so its truncate or delete frees them.
			// The caller needs the placement error, not a mapping one.
			_ = s.insertPlacements(o, placements)
			return fmt.Errorf("ost%d: place object %d [%d,+%d): %w", s.id, o.id, pos, gapEnd-pos, err)
		}
		if err := s.insertPlacements(o, placements); err != nil {
			return err
		}
		pos = gapEnd
	}
	return nil
}

// insertPlacements folds placements into the object's extent map,
// clipping any sub-ranges that are already mapped (promoted windows may
// cover blocks another stream mapped first), and records the physical
// space in the owned set.
func (s *Server) insertPlacements(o *object, placements []core.Placement) error {
	for _, pl := range placements {
		o.owned.Add(alloc.Range{Start: pl.Physical, Count: pl.Count})
		logical, count := pl.Logical, pl.Count
		for count > 0 {
			covered := o.extents.AppendRange(s.innerScratch[:0], logical, count)
			s.innerScratch = covered
			gapEnd := logical + count
			if len(covered) > 0 {
				if covered[0].Logical <= logical {
					n := covered[0].LogicalEnd() - logical
					logical += n
					count -= n
					continue
				}
				gapEnd = covered[0].Logical
			}
			off := logical - pl.Logical
			var flags uint32
			if pl.Preallocated {
				flags = extent.FlagPrealloc
			}
			e := extent.Extent{Logical: logical, Physical: pl.Physical + off, Count: gapEnd - logical, Flags: flags}
			if err := o.extents.Insert(e); err != nil {
				return fmt.Errorf("ost%d: map object %d: %w", s.id, o.id, err)
			}
			n := gapEnd - logical
			logical += n
			count -= n
		}
		if end := pl.Physical + pl.Count; end > o.goal {
			o.goal = end
		}
	}
	return nil
}

// Read fetches count blocks at the object's logical offset, enqueuing the
// device reads and verifying end-to-end that every written block resolves
// to the data that was stored there. Reading a hole (never-written,
// never-preallocated block) is an error.
func (s *Server) Read(id ObjectID, logical, count int64) error {
	if logical < 0 || count <= 0 {
		return fmt.Errorf("ost%d: invalid read [%d,+%d)", s.id, logical, count)
	}
	sp, prev := s.startOp(spanRead)
	sp.AnnotateInt(attrObject, int64(id))
	sp.AnnotateInt(attrBlocks, int64(count))
	defer s.endOp(sp, prev)
	o, err := s.object(id)
	if err != nil {
		return err
	}
	// Read-after-write consistency under delayed allocation: the
	// object's buffered writes must be allocated first.
	if err := s.flushObject(o); err != nil {
		return err
	}
	s.lrScratch = o.extents.AppendRange(s.lrScratch[:0], logical, count)
	var mapped int64
	for _, e := range s.lrScratch {
		mapped += e.Count
		s.readWithPrefetch(o, e)
		for i := int64(0); i < e.Count; i++ {
			l := e.Logical + i
			if !o.written.has(l) {
				continue // preallocated, unwritten: reads as zeroes
			}
			got, ok := s.tags.get(e.Physical + i)
			if !ok || got.obj != id || got.logical != l {
				return fmt.Errorf("ost%d: data corruption at object %d logical %d (physical %d): got %+v",
					s.id, id, l, e.Physical+i, got)
			}
		}
	}
	if mapped != count {
		return fmt.Errorf("ost%d: read hole in object %d [%d,+%d): only %d blocks mapped",
			s.id, id, logical, count, mapped)
	}
	return nil
}

// Fallocate persistently preallocates the object's first sizeBlocks blocks,
// the fallocate(2) path of the static policy. For policies without an
// explicit fallocate, the range is placed as one extending write.
func (s *Server) Fallocate(id ObjectID, stream core.StreamID, sizeBlocks int64) error {
	if sizeBlocks <= 0 {
		return fmt.Errorf("ost%d: invalid fallocate size %d", s.id, sizeBlocks)
	}
	o, err := s.object(id)
	if err != nil {
		return err
	}
	if st, ok := o.policy.(*core.Static); ok {
		if err := st.Fallocate(o.goal); err != nil {
			return err
		}
		return s.insertPlacements(o, st.Placed())
	}
	return s.ensureMapped(o, stream, 0, sizeBlocks)
}

// Delete removes the object, freeing every physical block it owned
// (mapped, preallocated, or leaked by clipped promotions) and dropping its
// temporary reservations.
func (s *Server) Delete(id ObjectID) error {
	o, err := s.object(id)
	if err != nil {
		return err
	}
	s.dropBuffers(id)
	o.policy.Close()
	for _, r := range o.owned.Ranges() {
		if err := s.alloc.Free(r); err != nil {
			return fmt.Errorf("ost%d: delete object %d: %w", s.id, id, err)
		}
		s.tags.clearRange(r.Start, r.End())
	}
	delete(s.objects, id)
	return nil
}

// Truncate cuts the object to newSize blocks: mappings at and beyond the
// boundary are removed and their physical blocks freed, including
// preallocated tails. Growing truncates are a no-op (the space appears on
// the next write; the file systems this models do not allocate holes).
func (s *Server) Truncate(id ObjectID, newSize int64) error {
	if newSize < 0 {
		return fmt.Errorf("ost%d: invalid truncate to %d", s.id, newSize)
	}
	o, err := s.object(id)
	if err != nil {
		return err
	}
	// Buffered writes beyond the boundary would resurrect the tail.
	if err := s.flushObject(o); err != nil {
		return err
	}
	const maxLogical = int64(1) << 40
	removed := o.extents.Delete(newSize, maxLogical-newSize)
	// Crash point: the truncate's free list is torn partway through. The
	// mappings are already gone (the extent map update persisted first);
	// Damage.Persisted counts how many of the removed extents were also
	// freed before the lights went out. The rest leak — owned but unmapped
	// — until the post-crash scrub reclaims them, and the written bits past
	// the boundary dangle until the scrub clears them.
	if dmg, ok := s.crash.Hit(crashsim.PtOstTruncatePartial, int64(len(removed))); ok {
		for i := int64(0); i < dmg.Persisted && i < int64(len(removed)); i++ {
			e := removed[i]
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
	for _, e := range removed {
		r := alloc.Range{Start: e.Physical, Count: e.Count}
		if err := s.alloc.Free(r); err != nil {
			return fmt.Errorf("ost%d: truncate object %d: %w", s.id, id, err)
		}
		o.owned.Remove(r)
		s.prefetched.Remove(r)
		s.tags.clearRange(r.Start, r.End())
	}
	o.written.clearFrom(newSize)
	// Preallocated-but-unmapped blocks past the boundary (clipped
	// promotions) stay in owned and are reclaimed at Delete; the policy's
	// windows are reset so future extends reallocate, and a static policy
	// forgets the fallocated runs just freed.
	o.policy.Close()
	if st, ok := o.policy.(*core.Static); ok {
		st.Truncate(newSize)
	}
	return nil
}

// CloseObject releases the object's temporary reservations (sequential
// windows); persistent preallocations stay. It models file close.
func (s *Server) CloseObject(id ObjectID) error {
	o, err := s.object(id)
	if err != nil {
		return err
	}
	o.policy.Close()
	return nil
}

// WrittenRuns returns the maximal runs of written logical blocks, sorted
// by logical address — the copy manifest a replica repair works from
// (holes and preallocated-but-unwritten space carry no data and are
// skipped).
func (s *Server) WrittenRuns(id ObjectID) ([]alloc.Range, error) {
	o, err := s.object(id)
	if err != nil {
		return nil, err
	}
	return o.written.appendRuns(nil), nil
}

// ObjectCount returns the number of objects resident on the server.
func (s *Server) ObjectCount() int64 {
	return int64(len(s.objects))
}

// UsedBlocks returns the allocated (non-free) block count of the volume.
func (s *Server) UsedBlocks() int64 {
	return s.cfg.Blocks - s.alloc.FreeBlocks()
}

// ExtentCount returns the object's segment count (Table I's currency).
func (s *Server) ExtentCount(id ObjectID) (int, error) {
	o, err := s.object(id)
	if err != nil {
		return 0, err
	}
	return o.extents.Len(), nil
}

// Extents returns a copy of the object's extent list.
func (s *Server) Extents(id ObjectID) ([]extent.Extent, error) {
	o, err := s.object(id)
	if err != nil {
		return nil, err
	}
	return o.extents.Extents(), nil
}

// OwnedBlocks returns the number of physical blocks the object holds.
func (s *Server) OwnedBlocks(id ObjectID) (int64, error) {
	o, err := s.object(id)
	if err != nil {
		return 0, err
	}
	return o.owned.Blocks(), nil
}

// readWithPrefetch services one mapped read piece with per-reader
// readahead: sub-ranges already prefetched are served from memory; the
// rest is fetched with the request extended through the containing
// physical extent up to the readahead window. Contiguous layouts therefore
// read in few large requests, while fragmented extents bound every request
// at their own length — the mechanism behind the paper's phase-2 numbers.
func (s *Server) readWithPrefetch(o *object, e extent.Extent) {
	if s.cfg.PrefetchCacheBlocks > 0 && s.prefetched.Blocks() > s.cfg.PrefetchCacheBlocks {
		// Epoch eviction: the cache is full; start a new epoch.
		s.prefetched = alloc.RangeSet{}
	}
	phys := alloc.Range{Start: e.Physical, Count: e.Count}
	s.gapScratch = s.prefetched.AppendGaps(s.gapScratch[:0], phys)
	gaps := s.gapScratch
	s.prefetchHits += phys.Count
	for _, g := range gaps {
		s.prefetchHits -= g.Count
		n := g.Count
		if ra := s.cfg.ReadAheadBlocks; ra > n {
			// Extend through the containing extent, up to the
			// readahead window.
			logicalAt := e.Logical + (g.Start - e.Physical)
			cont := o.extents.AppendRange(s.innerScratch[:0], logicalAt, ra)
			s.innerScratch = cont
			if len(cont) > 0 && cont[0].Physical == g.Start && cont[0].Count > n {
				n = cont[0].Count
			}
		}
		s.enqueue(iosched.Request{Start: g.Start, Count: n, Write: false})
		s.prefetched.Add(alloc.Range{Start: g.Start, Count: n})
	}
}

// PrefetchHits returns the number of read blocks served from the prefetch
// cache.
func (s *Server) PrefetchHits() int64 {
	return s.prefetchHits
}

// enqueue appends a device request, flushing the queue when the
// pending read volume reaches the synchronous-read bound or the pending
// write volume reaches the writeback bound.
func (s *Server) enqueue(r iosched.Request) {
	s.queue = append(s.queue, r)
	if r.Write {
		s.pendingWrite += r.Count
	} else {
		s.pendingRead += r.Count
	}
	if s.pendingRead >= s.cfg.BatchBlocks || s.pendingWrite >= s.cfg.WriteBatchBlocks {
		s.flush()
	}
}

// flush drains the device queue through the elevator.
func (s *Server) flush() sim.Ns {
	if len(s.queue) == 0 {
		return 0
	}
	// Crash point: power fails mid media-burst. The damage plan decides how
	// much of the burst (in submission order) persisted, and whether one
	// payload landed on the wrong block; it is resolved against the queue
	// now, while tags still hold enqueue-time values.
	if s.crash != nil {
		var n int64
		for _, r := range s.queue {
			if r.Write {
				n += r.Count
			}
		}
		if dmg, ok := s.crash.Hit(crashsim.PtOstFlushMedia, n); ok {
			s.planFlushDamage(dmg)
			s.crash.Kill()
		}
	}
	cost := s.sched.RunTraced(s.disk, s.queue, s.curSpan)
	s.queue = s.queue[:0]
	s.pendingRead = 0
	s.pendingWrite = 0
	// A completed flush persisted everything queued; the pre-images of
	// those writes are no longer needed for power-fail rollback.
	if s.crash != nil {
		s.preimg = s.preimg[:0]
	}
	if s.flushHist != nil {
		s.flushHist.Observe(cost)
	}
	return cost
}

// Flush forces buffered writes (under delayed allocation) and all queued
// device requests to storage, returning the device service time. Benchmark
// phases call it at phase boundaries.
func (s *Server) Flush() sim.Ns {
	sp, prev := s.startOp(spanFlush)
	defer s.endOp(sp, prev)
	if err := s.flushAllBuffers(); err != nil {
		// Allocation failure at writeback time is a data-loss class
		// error; surface loudly in the simulation.
		panic(err)
	}
	return s.flush()
}
