// Package cache implements the client-side block cache of a Redbud mount:
// the layer between the PFS file operations and the typed RPC clients.
//
// The paper's Figure 6 argument is that fragmentary requests reaching the
// disk cannot be merged by the elevator — so every opportunity to coalesce
// adjacent blocks *before* they cross the RPC boundary directly reduces
// the measured positioning count. Production parallel file systems (CFS,
// Lustre's client page cache) put exactly such a cache in front of the
// data servers. This one keeps:
//
//   - an LRU of clean block ranges: re-reads cost zero RPCs and zero disk
//     time;
//   - a dirty map with write-back aggregation: adjacent dirty blocks flush
//     as one coalesced write RPC, bounded by a configurable dirty-block
//     high-water mark (oldest runs written back first);
//   - a sequential-stream detector driving an adaptive readahead window:
//     a detected sequential reader's misses are extended into one larger
//     read RPC ahead of the stream, clamped to ranges known to exist so a
//     prefetch can never read a hole;
//   - strict flush barriers: FlushFile/Flush force every dirty block to
//     the servers, and the PFS layer invokes them on Sync, Close,
//     Truncate, and Delete so cache-on runs preserve the consistency the
//     defrag and recovery tests assert.
//
// The cache holds no user data — the simulation tracks placement and
// time, not bytes — only per-block residency and dirtiness, which is all
// the RPC/disk cost model needs. All decisions (write-back victim order,
// eviction order, readahead extension) are deterministic: LRU and dirty
// queues are intrusive lists and no map is iterated unsorted, so seeded
// runs replay byte-identically.
package cache

import (
	"fmt"
	"sort"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// FileID names one cached file (the PFS layer uses the MDS inode number).
type FileID uint64

// BackingStore is what the cache fills from and flushes to: the mount's
// striped RPC path. The PFS layer implements it over the typed OST
// clients. Implementations must not call back into the cache.
type BackingStore interface {
	// WriteBack stores one coalesced dirty run to the servers on behalf
	// of the stream that wrote its oldest block.
	WriteBack(f FileID, stream core.StreamID, blk, count int64) error
	// Fetch reads one missing (possibly readahead-extended) run from the
	// servers.
	Fetch(f FileID, blk, count int64) error
}

// Config tunes one mount's cache.
type Config struct {
	// CapacityBlocks bounds the total cached blocks (clean + dirty). The
	// least-recently-used block is evicted beyond it; dirty victims are
	// written back (as their whole coalesced run) first. Zero takes the
	// default.
	CapacityBlocks int64
	// DirtyHighWater is the dirty-block bound: when exceeded, the oldest
	// dirty runs are written back until the gauge is back under it. Zero
	// takes the default.
	DirtyHighWater int64
	// ReadAheadBlocks caps the readahead window. Zero takes the default;
	// negative disables readahead.
	ReadAheadBlocks int64
	// SequentialThreshold is the consecutive sequentially-read block
	// count that arms readahead for a file. The window then grows with
	// the observed run (adaptive), up to ReadAheadBlocks. Zero takes the
	// default.
	SequentialThreshold int64
}

// DefaultConfig returns the laptop-scale tuning: a 64 MiB cache (4 KiB
// blocks), a 16 MiB dirty high-water mark, and a 256 KiB readahead window
// armed after 32 KiB of sequential reading.
func DefaultConfig() Config {
	return Config{
		CapacityBlocks:      16384,
		DirtyHighWater:      4096,
		ReadAheadBlocks:     64,
		SequentialThreshold: 8,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.CapacityBlocks <= 0 {
		c.CapacityBlocks = d.CapacityBlocks
	}
	if c.DirtyHighWater <= 0 {
		c.DirtyHighWater = d.DirtyHighWater
	}
	if c.DirtyHighWater > c.CapacityBlocks {
		c.DirtyHighWater = c.CapacityBlocks
	}
	if c.ReadAheadBlocks == 0 {
		c.ReadAheadBlocks = d.ReadAheadBlocks
	}
	if c.SequentialThreshold <= 0 {
		c.SequentialThreshold = d.SequentialThreshold
	}
	return c
}

// Stats are the cache counters (monotone except the gauges).
type Stats struct {
	// HitBlocks / MissBlocks classify every requested read block.
	HitBlocks  int64
	MissBlocks int64
	// EvictedBlocks counts blocks pushed out by capacity pressure.
	EvictedBlocks int64
	// Writebacks counts coalesced write RPC runs; WritebackBlocks their
	// total size. Their ratio is the aggregation factor.
	Writebacks      int64
	WritebackBlocks int64
	// ReadaheadIssued counts blocks fetched beyond what a reader asked
	// for; ReadaheadUsed the subset later served as hits; ReadaheadWasted
	// the subset evicted or invalidated unreferenced.
	ReadaheadIssued int64
	ReadaheadUsed   int64
	ReadaheadWasted int64
	// FlushBarriers counts FlushFile/Flush invocations (the Sync, Close,
	// Truncate, and Delete barriers of the PFS layer).
	FlushBarriers int64
	// DirtyBlocks and CachedBlocks are point-in-time gauges.
	DirtyBlocks  int64
	CachedBlocks int64
}

// block is one cached block: LRU and dirty-queue linkage plus state.
type block struct {
	f   FileID
	blk int64

	dirty      bool
	stream     core.StreamID // writer, valid while dirty
	prefetched bool          // brought in by readahead, not yet referenced

	// lruPrev/lruNext form the recency list (head = most recent).
	lruPrev, lruNext *block
	// dirtyPrev/dirtyNext form the dirty FIFO (head = oldest).
	dirtyPrev, dirtyNext *block
}

// fileState is the per-file cache state.
type fileState struct {
	blocks map[int64]*block
	// written tracks logical ranges known to exist on the servers (every
	// range written through this cache). Readahead never extends outside
	// it, so a prefetch cannot read a hole.
	written alloc.RangeSet
	// lastEnd/run drive the sequential-stream detector: run accumulates
	// consecutive sequentially-read blocks and resets on a jump.
	lastEnd int64
	run     int64
}

// Cache is one mount's client block cache.
type Cache struct {
	cfg   Config
	store BackingStore

	files map[FileID]*fileState
	total int64 // cached blocks
	dirty int64 // dirty blocks

	lruHead, lruTail     *block // recency list
	dirtyHead, dirtyTail *block // dirty FIFO, oldest at head

	st Stats

	// wbHist, when attached, observes every coalesced write-back run's
	// size in blocks — the aggregation-factor histogram.
	wbHist *telemetry.Histogram
	// events, when attached, records structured eviction events stamped
	// with clock() (the mount's simulated clock; absent a clock they land
	// at time zero).
	events *telemetry.EventLog
	clock  func() sim.Ns
}

// New builds a cache over the backing store. Zero config fields take
// defaults.
func New(cfg Config, store BackingStore) *Cache {
	return &Cache{
		cfg:   cfg.withDefaults(),
		store: store,
		files: make(map[FileID]*fileState),
	}
}

// Config returns the effective (default-filled) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters with the gauges filled in.
func (c *Cache) Stats() Stats {
	st := c.st
	st.DirtyBlocks = c.dirty
	st.CachedBlocks = c.total
	return st
}

// Instrument publishes the layer=cache metrics: hit/miss/eviction
// counters, the dirty- and cached-block gauges, the coalesced-write size
// histogram, and the readahead issued/used/wasted counters.
func (c *Cache) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	c.wbHist = reg.Histogram("cache_writeback_blocks", labels)
	c.events = reg.Events()
	reg.CounterFunc("cache_hit_blocks", labels, func() int64 { return c.Stats().HitBlocks })
	reg.CounterFunc("cache_miss_blocks", labels, func() int64 { return c.Stats().MissBlocks })
	reg.CounterFunc("cache_evicted_blocks", labels, func() int64 { return c.Stats().EvictedBlocks })
	reg.CounterFunc("cache_writebacks", labels, func() int64 { return c.Stats().Writebacks })
	reg.CounterFunc("cache_readahead_issued_blocks", labels, func() int64 { return c.Stats().ReadaheadIssued })
	reg.CounterFunc("cache_readahead_used_blocks", labels, func() int64 { return c.Stats().ReadaheadUsed })
	reg.CounterFunc("cache_readahead_wasted_blocks", labels, func() int64 { return c.Stats().ReadaheadWasted })
	reg.CounterFunc("cache_flush_barriers", labels, func() int64 { return c.Stats().FlushBarriers })
	reg.GaugeFunc("cache_dirty_blocks", labels, func() int64 { return c.Stats().DirtyBlocks })
	reg.GaugeFunc("cache_cached_blocks", labels, func() int64 { return c.Stats().CachedBlocks })
}

// Reset discards every cached block, clean and dirty alike, without
// writing anything back — the client rebooting after a power failure. The
// counters, instrumentation, and configuration survive (they model the
// observer, not the machine).
func (c *Cache) Reset() {
	c.files = make(map[FileID]*fileState)
	c.total = 0
	c.dirty = 0
	c.lruHead, c.lruTail = nil, nil
	c.dirtyHead, c.dirtyTail = nil, nil
}

// SetClock attaches the simulated-time source that stamps the cache's
// structured events (the PFS layer passes its tracer's Now). A nil fn
// detaches it.
func (c *Cache) SetClock(fn func() sim.Ns) { c.clock = fn }

// now returns the current simulated time, or 0 with no clock attached.
func (c *Cache) now() sim.Ns {
	if c.clock == nil {
		return 0
	}
	return c.clock()
}

// file returns (creating on demand) the per-file state.
func (c *Cache) file(f FileID) *fileState {
	fs := c.files[f]
	if fs == nil {
		fs = &fileState{blocks: make(map[int64]*block)}
		c.files[f] = fs
	}
	return fs
}

// --- intrusive list plumbing -------------------------------------------

// lruUnlink removes b from the recency list.
func (c *Cache) lruUnlink(b *block) {
	if b.lruPrev != nil {
		b.lruPrev.lruNext = b.lruNext
	} else if c.lruHead == b {
		c.lruHead = b.lruNext
	}
	if b.lruNext != nil {
		b.lruNext.lruPrev = b.lruPrev
	} else if c.lruTail == b {
		c.lruTail = b.lruPrev
	}
	b.lruPrev, b.lruNext = nil, nil
}

// lruPush inserts b at the most-recent end.
func (c *Cache) lruPush(b *block) {
	b.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = b
	}
	c.lruHead = b
	if c.lruTail == nil {
		c.lruTail = b
	}
}

// touch moves b to the most-recent end.
func (c *Cache) touch(b *block) {
	if c.lruHead == b {
		return
	}
	c.lruUnlink(b)
	c.lruPush(b)
}

// dirtyUnlink removes b from the dirty FIFO.
func (c *Cache) dirtyUnlink(b *block) {
	if b.dirtyPrev != nil {
		b.dirtyPrev.dirtyNext = b.dirtyNext
	} else if c.dirtyHead == b {
		c.dirtyHead = b.dirtyNext
	}
	if b.dirtyNext != nil {
		b.dirtyNext.dirtyPrev = b.dirtyPrev
	} else if c.dirtyTail == b {
		c.dirtyTail = b.dirtyPrev
	}
	b.dirtyPrev, b.dirtyNext = nil, nil
}

// dirtyAppend queues b at the newest end of the dirty FIFO.
func (c *Cache) dirtyAppend(b *block) {
	b.dirtyPrev = c.dirtyTail
	if c.dirtyTail != nil {
		c.dirtyTail.dirtyNext = b
	}
	c.dirtyTail = b
	if c.dirtyHead == nil {
		c.dirtyHead = b
	}
}

// drop removes b from every structure.
func (c *Cache) drop(b *block) {
	if b.prefetched {
		b.prefetched = false
		c.st.ReadaheadWasted++
	}
	if b.dirty {
		b.dirty = false
		c.dirtyUnlink(b)
		c.dirty--
	}
	c.lruUnlink(b)
	if fs := c.files[b.f]; fs != nil {
		delete(fs.blocks, b.blk)
	}
	c.total--
}

// --- write path --------------------------------------------------------

// Write marks [blk, blk+count) of f dirty on behalf of stream, absorbing
// the data without any RPC. It then enforces the dirty high-water mark
// (oldest coalesced runs written back first) and the capacity bound.
func (c *Cache) Write(f FileID, stream core.StreamID, blk, count int64) error {
	if blk < 0 || count <= 0 {
		return fmt.Errorf("cache: invalid write [%d,+%d)", blk, count)
	}
	fs := c.file(f)
	for i := int64(0); i < count; i++ {
		l := blk + i
		b := fs.blocks[l]
		if b == nil {
			b = &block{f: f, blk: l}
			fs.blocks[l] = b
			c.lruPush(b)
			c.total++
		} else {
			c.touch(b)
			if b.prefetched {
				// Overwritten before ever being read: the prefetch
				// was wasted.
				b.prefetched = false
				c.st.ReadaheadWasted++
			}
			if b.dirty {
				// Re-dirtied blocks keep their FIFO position; the run
				// they belong to is still queued.
				b.stream = stream
				continue
			}
		}
		b.dirty = true
		b.stream = stream
		c.dirtyAppend(b)
		c.dirty++
	}
	fs.written.Add(alloc.Range{Start: blk, Count: count})
	if err := c.enforceHighWater(); err != nil {
		return err
	}
	return c.enforceCapacity()
}

// enforceHighWater writes back oldest dirty runs until the dirty
// gauge is at or under the high-water mark.
func (c *Cache) enforceHighWater() error {
	for c.dirty > c.cfg.DirtyHighWater && c.dirtyHead != nil {
		if err := c.writeBackRun(c.dirtyHead); err != nil {
			return err
		}
	}
	return nil
}

// enforceCapacity evicts least-recently-used blocks until the cache
// fits, writing back any dirty victim's run first.
func (c *Cache) enforceCapacity() error {
	for c.total > c.cfg.CapacityBlocks && c.lruTail != nil {
		victim := c.lruTail
		if victim.dirty {
			if err := c.writeBackRun(victim); err != nil {
				return err
			}
		}
		c.events.Emit(c.now(), "cache", "evict", fmt.Sprintf("file %d blk %d", victim.f, victim.blk))
		c.drop(victim)
		c.st.EvictedBlocks++
	}
	return nil
}

// writeBackRun flushes the maximal contiguous dirty run containing
// b as one coalesced WriteBack call, then marks the run clean (the blocks
// stay cached). The run's stream is the trigger block's writer.
func (c *Cache) writeBackRun(b *block) error {
	fs := c.files[b.f]
	lo, hi := b.blk, b.blk+1
	for {
		prev := fs.blocks[lo-1]
		if prev == nil || !prev.dirty {
			break
		}
		lo--
	}
	for {
		next := fs.blocks[hi]
		if next == nil || !next.dirty {
			break
		}
		hi++
	}
	if err := c.store.WriteBack(b.f, b.stream, lo, hi-lo); err != nil {
		return err
	}
	for l := lo; l < hi; l++ {
		rb := fs.blocks[l]
		rb.dirty = false
		c.dirtyUnlink(rb)
		c.dirty--
	}
	c.st.Writebacks++
	c.st.WritebackBlocks += hi - lo
	if c.wbHist != nil {
		c.wbHist.Observe(hi - lo)
	}
	return nil
}

// --- read path ---------------------------------------------------------

// span is one contiguous run of blocks.
type span struct{ start, count int64 }

// Read serves [blk, blk+count) of f: cached blocks (clean or dirty) are
// hits costing nothing; missing runs are fetched from the backing store,
// extended by the adaptive readahead window when the reader has proven
// sequential, and inserted clean.
func (c *Cache) Read(f FileID, blk, count int64) error {
	if blk < 0 || count <= 0 {
		return fmt.Errorf("cache: invalid read [%d,+%d)", blk, count)
	}
	fs := c.file(f)

	// Sequential-stream detection: a read continuing where the previous
	// one ended grows the run; a jump resets it.
	if blk == fs.lastEnd {
		fs.run += count
	} else {
		fs.run = count
	}
	fs.lastEnd = blk + count
	window := int64(0)
	if c.cfg.ReadAheadBlocks > 0 && fs.run >= c.cfg.SequentialThreshold {
		// Adaptive window: grows with the observed sequential run, up
		// to the configured cap.
		window = fs.run
		if window > c.cfg.ReadAheadBlocks {
			window = c.cfg.ReadAheadBlocks
		}
	}

	// Classify the requested range into hits and missing runs.
	var misses []span
	for i := int64(0); i < count; i++ {
		l := blk + i
		if b := fs.blocks[l]; b != nil {
			c.st.HitBlocks++
			if b.prefetched {
				b.prefetched = false
				c.st.ReadaheadUsed++
			}
			c.touch(b)
			continue
		}
		c.st.MissBlocks++
		if n := len(misses); n > 0 && misses[n-1].start+misses[n-1].count == l {
			misses[n-1].count++
		} else {
			misses = append(misses, span{start: l, count: 1})
		}
	}

	// Readahead: extend the final miss through the window — or, when the
	// whole request hit, prefetch ahead of it — clamped to blocks known
	// to exist and stopping at the first already-cached block.
	var issued int64
	if window > 0 {
		ext := span{start: blk + count, count: 0}
		if n := len(misses); n > 0 && misses[n-1].start+misses[n-1].count == blk+count {
			// The request missed right up to its end: grow that run.
			for l := blk + count; l < blk+count+window; l++ {
				if fs.blocks[l] != nil || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
					break
				}
				misses[n-1].count++
				issued++
			}
		} else {
			for l := ext.start; l < ext.start+window; l++ {
				if fs.blocks[l] != nil || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
					break
				}
				ext.count++
				issued++
			}
			if ext.count > 0 {
				misses = append(misses, ext)
			}
		}
	}

	for _, m := range misses {
		if err := c.store.Fetch(f, m.start, m.count); err != nil {
			return err
		}
		for l := m.start; l < m.start+m.count; l++ {
			b := &block{f: f, blk: l}
			if l >= blk+count {
				b.prefetched = true
			}
			fs.blocks[l] = b
			c.lruPush(b)
			c.total++
		}
	}
	c.st.ReadaheadIssued += issued
	return c.enforceCapacity()
}

// --- barriers and invalidation ----------------------------------------

// dirtyRuns returns f's dirty blocks coalesced into sorted runs.
func (c *Cache) dirtyRuns(fs *fileState) []span {
	var dirty []int64
	for l, b := range fs.blocks {
		if b.dirty {
			dirty = append(dirty, l)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	var runs []span
	for _, l := range dirty {
		if n := len(runs); n > 0 && runs[n-1].start+runs[n-1].count == l {
			runs[n-1].count++
		} else {
			runs = append(runs, span{start: l, count: 1})
		}
	}
	return runs
}

// FlushFile is the per-file barrier: every dirty block of f is written
// back (coalesced into maximal runs, in ascending order). The PFS layer
// calls it on Fsync, Close, Truncate, and Delete.
func (c *Cache) FlushFile(f FileID) error {
	c.st.FlushBarriers++
	return c.flushFile(f)
}

// flushFile writes back every dirty run of f, in ascending order.
func (c *Cache) flushFile(f FileID) error {
	fs := c.files[f]
	if fs == nil {
		return nil
	}
	for _, r := range c.dirtyRuns(fs) {
		if err := c.writeBackRun(fs.blocks[r.start]); err != nil {
			return err
		}
	}
	return nil
}

// Flush is the mount-wide barrier: every dirty block of every file is
// written back, files in ascending FileID order. The PFS layer calls it
// on Sync.
func (c *Cache) Flush() error {
	c.st.FlushBarriers++
	ids := make([]FileID, 0, len(c.files))
	for f := range c.files {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, f := range ids {
		if err := c.flushFile(f); err != nil {
			return err
		}
	}
	return nil
}

// Truncate drops every cached block of f at or beyond newSize and trims
// the known-written ranges, so stale tail blocks can neither hit nor be
// written back after the file shrinks. The PFS layer flushes f first (the
// barrier), then truncates the servers, then calls this.
func (c *Cache) Truncate(f FileID, newSize int64) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	var tail []int64
	for l := range fs.blocks {
		if l >= newSize {
			tail = append(tail, l)
		}
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	for _, l := range tail {
		c.drop(fs.blocks[l])
	}
	const maxLogical = int64(1) << 40
	fs.written.Remove(alloc.Range{Start: newSize, Count: maxLogical - newSize})
	if fs.lastEnd > newSize {
		fs.lastEnd, fs.run = 0, 0
	}
}

// Drop discards every cached block of f — dirty ones too, without write-
// back. The PFS layer calls it after deleting the file's objects (the
// preceding flush barrier has already drained the dirty set).
func (c *Cache) Drop(f FileID) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	var all []int64
	for l := range fs.blocks {
		all = append(all, l)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, l := range all {
		c.drop(fs.blocks[l])
	}
	delete(c.files, f)
}
