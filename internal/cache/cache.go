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
//   - a dirty set with write-back aggregation: adjacent dirty blocks flush
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
// Every mount has a cache. One of capacity 0 is a pass-through: each Write
// is one WriteBack and each Read one Fetch of the caller's range, and it
// keeps, counts and publishes nothing.
//
// The cache holds no user data — the simulation tracks placement and
// time, not bytes — only per-block residency and dirtiness, which is all
// the RPC/disk cost model needs. Every cached block is one node of a
// single slab; the LRU list, the dirty FIFO and the free list link nodes
// by index, and each file maps its logical blocks to nodes through a dense
// index, so a warm cache allocates and hashes nothing per block. All
// decisions (write-back victim order, eviction order, readahead extension)
// are deterministic: the queues are lists, per-file walks go in ascending
// block order, and no map is iterated unsorted, so seeded runs replay
// byte-identically.
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
	// written back (as their whole coalesced run) first. Zero or less makes
	// the cache a write-through pass-through that holds no block, and the
	// other fields are ignored.
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

// withDefaults fills zero fields; a pass-through becomes the zero Config.
func (c Config) withDefaults() Config {
	if c.CapacityBlocks <= 0 {
		return Config{}
	}
	d := DefaultConfig()
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

// node is one cached block in Cache.nodes. nodes[0] is the sentinel of
// both lists: its lruNext is the most recently used node and its lruPrev
// the least; its dirtyNext is the oldest dirty node and its dirtyPrev the
// newest. Free nodes chain through lruNext from Cache.free.
type node struct {
	file *fileState
	blk  int64

	stream core.StreamID // writer, valid while dirty

	lruPrev, lruNext     int32
	dirtyPrev, dirtyNext int32

	dirty      bool
	prefetched bool // brought in by readahead, not yet referenced
}

// fileState is the per-file cache state.
type fileState struct {
	id FileID
	// idx maps a logical block to its node, 0 when the block is not
	// cached. It grows on demand to the highest block cached; the PFS
	// layer bounds that by the mount's data capacity.
	idx []int32
	// written tracks logical ranges known to exist on the servers (every
	// range written through this cache). Readahead never extends outside
	// it, so a prefetch cannot read a hole.
	written alloc.RangeSet
	// lastEnd/run drive the sequential-stream detector: run accumulates
	// consecutive sequentially-read blocks and resets on a jump.
	lastEnd int64
	run     int64
}

// at returns the node caching block l, or 0.
func (fs *fileState) at(l int64) int32 {
	if l < int64(len(fs.idx)) {
		return fs.idx[l]
	}
	return 0
}

// grow extends the index to cover blocks below end.
func (fs *fileState) grow(end int64) {
	if n := int64(len(fs.idx)); end > n {
		fs.idx = append(fs.idx, make([]int32, end-n)...)
	}
}

// Cache is one mount's client block cache.
type Cache struct {
	cfg   Config
	store BackingStore

	files map[FileID]*fileState
	nodes []node
	free  int32 // head of the free-node chain, 0 when empty
	total int64 // cached blocks
	dirty int64 // dirty blocks

	misses []span // Read's scratch

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

// New builds a cache over the backing store, a pass-through when
// cfg.CapacityBlocks <= 0. Other zero config fields take defaults.
func New(cfg Config, store BackingStore) *Cache {
	return &Cache{
		cfg:   cfg.withDefaults(),
		store: store,
		files: make(map[FileID]*fileState),
		nodes: make([]node, 1),
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
// histogram, and the readahead issued/used/wasted counters; a
// pass-through publishes nothing.
func (c *Cache) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	if c.passThrough() {
		return
	}
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
	clear(c.nodes)
	c.nodes = c.nodes[:1]
	c.free = 0
	c.total = 0
	c.dirty = 0
}

// passThrough reports whether the cache holds no block at all.
func (c *Cache) passThrough() bool { return c.cfg.CapacityBlocks == 0 }

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
		fs = &fileState{id: f}
		c.files[f] = fs
	}
	return fs
}

// --- node slab and list plumbing --------------------------------------

// insert caches block l of fs (its index already covers l) as a clean,
// most-recently-used node and returns the node.
func (c *Cache) insert(fs *fileState, l int64) int32 {
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].lruNext
	} else {
		c.nodes = append(c.nodes, node{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i] = node{file: fs, blk: l}
	fs.idx[l] = i
	c.lruPush(i)
	c.total++
	return i
}

// lruUnlink removes node i from the recency list.
func (c *Cache) lruUnlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.lruPrev].lruNext = n.lruNext
	c.nodes[n.lruNext].lruPrev = n.lruPrev
}

// lruPush inserts node i at the most-recent end.
func (c *Cache) lruPush(i int32) {
	first := c.nodes[0].lruNext
	c.nodes[i].lruPrev, c.nodes[i].lruNext = 0, first
	c.nodes[first].lruPrev = i
	c.nodes[0].lruNext = i
}

// touch moves node i to the most-recent end.
func (c *Cache) touch(i int32) {
	if c.nodes[0].lruNext == i {
		return
	}
	c.lruUnlink(i)
	c.lruPush(i)
}

// dirtyUnlink removes node i from the dirty FIFO.
func (c *Cache) dirtyUnlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.dirtyPrev].dirtyNext = n.dirtyNext
	c.nodes[n.dirtyNext].dirtyPrev = n.dirtyPrev
}

// dirtyAppend queues node i at the newest end of the dirty FIFO.
func (c *Cache) dirtyAppend(i int32) {
	last := c.nodes[0].dirtyPrev
	c.nodes[i].dirtyPrev, c.nodes[i].dirtyNext = last, 0
	c.nodes[last].dirtyNext = i
	c.nodes[0].dirtyPrev = i
}

// drop removes node i from every structure and frees it.
func (c *Cache) drop(i int32) {
	n := &c.nodes[i]
	if n.prefetched {
		c.st.ReadaheadWasted++
	}
	if n.dirty {
		c.dirtyUnlink(i)
		c.dirty--
	}
	c.lruUnlink(i)
	n.file.idx[n.blk] = 0
	*n = node{lruNext: c.free}
	c.free = i
	c.total--
}

// dirtyAt reports whether block l of fs is cached dirty.
func (c *Cache) dirtyAt(fs *fileState, l int64) bool {
	i := fs.at(l)
	return i != 0 && c.nodes[i].dirty
}

// --- write path --------------------------------------------------------

// Write marks [blk, blk+count) of f dirty on behalf of stream, absorbing
// the data without any RPC. It then enforces the dirty high-water mark
// (oldest coalesced runs written back first) and the capacity bound.
func (c *Cache) Write(f FileID, stream core.StreamID, blk, count int64) error {
	if blk < 0 || count <= 0 {
		return fmt.Errorf("cache: invalid write [%d,+%d)", blk, count)
	}
	if c.passThrough() {
		return c.store.WriteBack(f, stream, blk, count)
	}
	fs := c.file(f)
	fs.grow(blk + count)
	for l := blk; l < blk+count; l++ {
		i := fs.idx[l]
		if i == 0 {
			i = c.insert(fs, l)
		} else {
			c.touch(i)
			n := &c.nodes[i]
			if n.prefetched {
				// Overwritten before ever being read: the prefetch
				// was wasted.
				n.prefetched = false
				c.st.ReadaheadWasted++
			}
			if n.dirty {
				// Re-dirtied blocks keep their FIFO position; the run
				// they belong to is still queued.
				n.stream = stream
				continue
			}
		}
		n := &c.nodes[i]
		n.dirty = true
		n.stream = stream
		c.dirtyAppend(i)
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
	for c.dirty > c.cfg.DirtyHighWater && c.nodes[0].dirtyNext != 0 {
		if err := c.writeBackRun(c.nodes[0].dirtyNext); err != nil {
			return err
		}
	}
	return nil
}

// enforceCapacity evicts least-recently-used blocks until the cache
// fits, writing back any dirty victim's run first.
func (c *Cache) enforceCapacity() error {
	for c.total > c.cfg.CapacityBlocks && c.nodes[0].lruPrev != 0 {
		victim := c.nodes[0].lruPrev
		if c.nodes[victim].dirty {
			if err := c.writeBackRun(victim); err != nil {
				return err
			}
		}
		if c.events != nil {
			v := &c.nodes[victim]
			c.events.Emit(c.now(), "cache", "evict", fmt.Sprintf("file %d blk %d", v.file.id, v.blk))
		}
		c.drop(victim)
		c.st.EvictedBlocks++
	}
	return nil
}

// writeBackRun flushes the maximal contiguous dirty run containing node
// i as one coalesced WriteBack call, then marks the run clean (the blocks
// stay cached). The run's stream is the trigger block's writer.
func (c *Cache) writeBackRun(i int32) error {
	n := &c.nodes[i]
	fs := n.file
	lo, hi := n.blk, n.blk+1
	for lo > 0 && c.dirtyAt(fs, lo-1) {
		lo--
	}
	for c.dirtyAt(fs, hi) {
		hi++
	}
	if err := c.store.WriteBack(fs.id, n.stream, lo, hi-lo); err != nil {
		return err
	}
	for l := lo; l < hi; l++ {
		j := fs.idx[l]
		c.nodes[j].dirty = false
		c.dirtyUnlink(j)
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
	if c.passThrough() {
		return c.store.Fetch(f, blk, count)
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
	misses := c.misses[:0]
	for l := blk; l < blk+count; l++ {
		if i := fs.at(l); i != 0 {
			c.st.HitBlocks++
			if n := &c.nodes[i]; n.prefetched {
				n.prefetched = false
				c.st.ReadaheadUsed++
			}
			c.touch(i)
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
				if fs.at(l) != 0 || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
					break
				}
				misses[n-1].count++
				issued++
			}
		} else {
			for l := ext.start; l < ext.start+window; l++ {
				if fs.at(l) != 0 || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
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
	c.misses = misses

	if n := len(misses); n > 0 {
		fs.grow(misses[n-1].start + misses[n-1].count)
	}
	for _, m := range misses {
		if err := c.store.Fetch(f, m.start, m.count); err != nil {
			return err
		}
		for l := m.start; l < m.start+m.count; l++ {
			i := c.insert(fs, l)
			if l >= blk+count {
				c.nodes[i].prefetched = true
			}
		}
	}
	c.st.ReadaheadIssued += issued
	return c.enforceCapacity()
}

// --- barriers and invalidation ----------------------------------------

// FlushFile is the per-file barrier: every dirty block of f is written
// back (coalesced into maximal runs, in ascending order). The PFS layer
// calls it on Fsync, Close, Truncate, and Delete.
func (c *Cache) FlushFile(f FileID) error {
	if c.passThrough() {
		return nil
	}
	c.st.FlushBarriers++
	return c.flushFile(f)
}

// flushFile writes back every dirty run of f, in ascending order: the
// walk meets each run at its lowest block, and the write-back leaves the
// rest of the run clean.
func (c *Cache) flushFile(f FileID) error {
	fs := c.files[f]
	if fs == nil {
		return nil
	}
	for _, i := range fs.idx {
		if i != 0 && c.nodes[i].dirty {
			if err := c.writeBackRun(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush is the mount-wide barrier: every dirty block of every file is
// written back, files in ascending FileID order. The PFS layer calls it
// on Sync.
func (c *Cache) Flush() error {
	if c.passThrough() {
		return nil
	}
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
	if newSize < int64(len(fs.idx)) {
		keep := max(newSize, 0)
		for _, i := range fs.idx[keep:] {
			if i != 0 {
				c.drop(i)
			}
		}
		fs.idx = fs.idx[:keep]
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
	for _, i := range fs.idx {
		if i != 0 {
			c.drop(i)
		}
	}
	delete(c.files, f)
}
