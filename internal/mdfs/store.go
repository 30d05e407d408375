// Package mdfs implements the metadata file system (MFS) that backs the
// Redbud metadata server: an ext3-like block store with a write-ahead
// journal, block groups, and two directory layouts — the traditional
// placement (directory-entry blocks plus inode-table inodes) and the MiF
// embedded directory (inodes and layout mappings inside the directory
// content, entry blocks omitted).
//
// The paper builds its MFS "using ext3 and then incorporate[s] embedded
// directory into it"; this package is that component, with every metadata
// disk access accounted through the disk model so the Figure 8–10
// experiments can count block-layer requests the way the paper does.
package mdfs

import (
	"fmt"

	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/iosched"
	"redbud/internal/journal"
	"redbud/internal/sim"
)

// StoreStats counts block-store activity.
type StoreStats struct {
	// Reads counts logical block reads.
	Reads int64
	// CacheHits counts reads served from the cache.
	CacheHits int64
	// DiskReads counts block reads that went to the disk.
	DiskReads int64
	// TxnWrites counts block writes recorded in transactions.
	TxnWrites int64
}

// Store is the transactional block store of the metadata file system. Block
// contents are real bytes; reads that miss the LRU cache are charged to the
// disk model, mutations are journaled and written home at checkpoints.
// Store is not safe for concurrent use; the owning FS serializes operations
// the way a single MDS thread pool with a namespace lock would.
//
// Buffer ownership: the store owns every block buffer. A buffer in txn
// belongs to the open transaction and is mutated in place by Write and
// WriteAt — one copy of a block per transaction, however many sub-block
// updates it takes. Commit hands the buffer to the journal and to dirty,
// and from then on nobody writes to it again: dirty and home buffers (and
// the shared zero block) are immutable, which is what lets the journal,
// the overlays and every reader share them without copying. Slices
// returned by Read, ReadRange and StoreView.Read alias these buffers and
// are read-only; one that aliases a transaction buffer also sees the
// transaction's later writes, so callers decode what they read before
// they write the same block.
type Store struct {
	d         *disk.Disk
	sched     *iosched.Elevator
	blockSize int

	home  map[int64][]byte
	dirty map[int64][]byte
	txn   map[int64][]byte
	order []int64          // txn insertion order
	recs  []journal.Record // Commit's scratch; the journal does not keep it
	zero  []byte           // what a never-written block reads as

	cache blockLRU

	jnl   *journal.Journal
	stats StoreStats

	// crash, when armed, kills the mount at the store's named crash
	// points (nil-safe: nil is a no-op).
	crash *crashsim.Injector
}

// NewStore builds a store over d with the journal occupying
// [journalStart, journalStart+journalBlocks) and an LRU cache of cacheCap
// blocks.
func NewStore(d *disk.Disk, journalStart, journalBlocks int64, cacheCap int, queueDepth int) *Store {
	if cacheCap < 1 {
		panic("mdfs: cache capacity must be >= 1")
	}
	s := &Store{
		d:         d,
		sched:     iosched.NewElevator(queueDepth),
		blockSize: int(d.Config().BlockSize),
		home:      make(map[int64][]byte),
		dirty:     make(map[int64][]byte),
		txn:       make(map[int64][]byte),
		zero:      make([]byte, d.Config().BlockSize),
		cache:     newBlockLRU(cacheCap),
	}
	s.jnl = journal.New(d, journalStart, journalBlocks, s.applyCheckpoint)
	return s
}

// Disk returns the underlying device model.
func (s *Store) Disk() *disk.Disk { return s.d }

// Journal exposes journal counters.
func (s *Store) Journal() *journal.Journal { return s.jnl }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats { return s.stats }

// SetCrashInjector arms the store's and its journal's crash points for a
// sweep run.
func (s *Store) SetCrashInjector(in *crashsim.Injector) {
	s.crash = in
	s.jnl.SetCrashInjector(in)
}

// DirtyBlocks returns the size of the committed-but-unchekpointed overlay —
// after LoadImage, the number of blocks journal replay had to repair.
// miffsck's exit-code contract distinguishes "clean" from "repaired" with
// it.
func (s *Store) DirtyBlocks() int { return len(s.dirty) }

// BlockSize returns the block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// content returns the current bytes of a block: transaction overlay first,
// then the committed overlay, then home, then the shared zero block for a
// block never written anywhere. The result aliases internal state and is
// read-only.
func (s *Store) content(blk int64) []byte {
	if b, ok := s.txn[blk]; ok {
		return b
	}
	b, _ := s.committed(blk)
	return b
}

// committed returns a block's bytes as of the last commit, and whether it
// has been written at all.
func (s *Store) committed(blk int64) ([]byte, bool) {
	if b, ok := s.dirty[blk]; ok {
		return b, true
	}
	if b, ok := s.home[blk]; ok {
		return b, true
	}
	return s.zero, false
}

// charge accounts one logical block read: a cache hit, or a disk read that
// makes the block resident.
func (s *Store) charge(blk int64) {
	s.stats.Reads++
	if s.cache.touch(blk) {
		s.stats.CacheHits++
		return
	}
	s.d.Access(blk, 1, false)
	s.stats.DiskReads++
}

// Read returns the content of one block, charging a disk read on a cache
// miss.
func (s *Store) Read(blk int64) []byte {
	s.charge(blk)
	return s.content(blk)
}

// ReadRange reads count consecutive blocks, fetching the cache-miss runs
// with as few disk requests as their contiguity allows — the whole-directory
// sequential read path of readdirplus, where the kernel prefetch window
// merges "the individual readdir-stat operations to be some large read disk
// requests".
func (s *Store) ReadRange(blk, count int64) [][]byte {
	out := make([][]byte, 0, count)
	runStart := int64(-1)
	flush := func(end int64) {
		if runStart >= 0 {
			s.d.Access(runStart, end-runStart, false)
			s.stats.DiskReads += end - runStart
			runStart = -1
		}
	}
	for b := blk; b < blk+count; b++ {
		s.stats.Reads++
		if s.cache.touch(b) {
			s.stats.CacheHits++
			flush(b)
		} else if runStart < 0 {
			runStart = b
		}
		out = append(out, s.content(b))
	}
	flush(blk + count)
	return out
}

// Write records a full-block write in the current transaction. The data is
// copied.
func (s *Store) Write(blk int64, data []byte) {
	if len(data) != s.blockSize {
		panic(fmt.Sprintf("mdfs: write of %d bytes to block %d, want %d", len(data), blk, s.blockSize))
	}
	if buf, ok := s.txn[blk]; ok {
		copy(buf, data)
	} else {
		s.join(blk, data)
	}
	s.stats.TxnWrites++
	s.cache.touch(blk)
}

// WriteAt updates a byte range within one block, reading the current
// content first (a read-modify-write, like touching one inode record in an
// inode-table block). A block that has never been written anywhere is
// newly allocated — the file system knows its on-disk content is void, so
// no read is charged.
func (s *Store) WriteAt(blk int64, off int, data []byte) {
	if off < 0 || off+len(data) > s.blockSize {
		panic(fmt.Sprintf("mdfs: WriteAt [%d,+%d) outside block", off, len(data)))
	}
	buf, ok := s.txn[blk]
	if ok {
		s.charge(blk)
	} else {
		cur, known := s.committed(blk)
		if known {
			s.charge(blk)
		} else {
			s.cache.touch(blk)
		}
		buf = s.join(blk, cur)
	}
	copy(buf[off:], data)
	s.stats.TxnWrites++
}

// join adds blk to the open transaction with a buffer of its own holding a
// copy of content — the one block copy the transaction pays for blk.
func (s *Store) join(blk int64, content []byte) []byte {
	// append, unlike make, does not zero what it is about to overwrite.
	buf := append([]byte(nil), content...)
	s.txn[blk] = buf
	s.order = append(s.order, blk)
	return buf
}

// Forget discards a freed block's contents everywhere but the running
// transaction: a freed block's on-disk bytes are void, so a later
// reallocation writes it fresh without a read. The block is also revoked
// in the journal — without the revoke, a pending journaled write would
// resurrect the stale contents at the next checkpoint or crash replay.
func (s *Store) Forget(blk int64) {
	delete(s.home, blk)
	delete(s.dirty, blk)
	delete(s.txn, blk) // a pending write to a freed block is void too
	s.cache.remove(blk)
	s.jnl.Revoke(blk)
}

// Commit journals the current transaction. The home blocks are written
// later, at checkpoint time. The transaction's buffers pass to the journal
// and the committed overlay, and are immutable from here on.
func (s *Store) Commit() error {
	if len(s.order) == 0 {
		return nil
	}
	records := s.recs[:0]
	for _, blk := range s.order {
		// Blocks written then freed within this transaction carry no
		// data; a nil overlay entry would shadow home and corrupt saved
		// images.
		if data, ok := s.txn[blk]; ok {
			records = append(records, journal.Record{Block: blk, Data: data})
		}
	}
	s.recs = records
	if len(records) == 0 {
		s.endTxn()
		return nil
	}
	// Crash point: the transaction is assembled in memory and nothing has
	// touched the journal — a power failure here loses it whole, which is
	// exactly what an uncommitted transaction is allowed to do.
	if _, ok := s.crash.Hit(crashsim.PtMdfsCommitBegin, int64(len(records))); ok {
		s.crash.Kill()
	}
	if _, err := s.jnl.Commit(records); err != nil {
		return err
	}
	for _, r := range records {
		s.dirty[r.Block] = r.Data
	}
	s.endTxn()
	return nil
}

// Abort discards the current transaction.
func (s *Store) Abort() { s.endTxn() }

// endTxn empties the transaction overlay, keeping its storage for the next
// transaction.
func (s *Store) endTxn() {
	clear(s.txn)
	s.order = s.order[:0]
}

// Checkpoint forces the journaled updates to their home locations.
func (s *Store) Checkpoint() {
	s.jnl.Checkpoint()
}

// applyCheckpoint is the journal's CheckpointFunc: it writes the batch to
// home through the elevator, so physically adjacent dirty blocks merge into
// single disk requests.
func (s *Store) applyCheckpoint(records []journal.Record) sim.Ns {
	// Crash point: power fails mid write-back. The damage plan decides
	// which home blocks (in the batch's sorted order) were updated; a
	// misdirected payload lands on another home block of the same batch.
	// Every record is still in the journal — the region is reset only
	// after this function returns — so replay repairs all of it,
	// including the misdirection victim.
	if dmg, ok := s.crash.Hit(crashsim.PtMdfsCheckpointHome, int64(len(records))); ok {
		for i := int64(0); i < dmg.Persisted && i < int64(len(records)); i++ {
			s.home[records[i].Block] = records[i].Data
		}
		if dmg.Victim >= 0 {
			stray := make([]byte, len(records[dmg.Persisted].Data))
			copy(stray, records[dmg.Persisted].Data)
			s.home[records[dmg.Victim].Block] = stray
		}
		s.crash.Kill()
	}
	reqs := make([]iosched.Request, 0, len(records))
	for _, r := range records {
		s.home[r.Block] = r.Data
		delete(s.dirty, r.Block)
		reqs = append(reqs, iosched.Request{Start: r.Block, Count: 1, Write: true})
	}
	return s.sched.Run(s.d, reqs)
}

// StoreView is a read-only, charge-free view of a Store's current
// contents. It resolves blocks with the same precedence Read uses
// (transaction overlay, committed overlay, home) but performs no
// accounting at all: no LRU traffic, no stats, no simulated-disk charge.
// Fsck reads through one, so checking a mount never moves its simulated
// metrics; the store must be quiescent (no writes in flight) meanwhile.
type StoreView struct {
	s *Store
}

// View returns a read-only view of the store's current contents.
func (s *Store) View() *StoreView {
	return &StoreView{s: s}
}

// Read returns the block's current bytes. The result aliases store state
// (or a shared zero block for never-written blocks); callers must treat
// it as read-only.
func (v *StoreView) Read(blk int64) []byte { return v.s.content(blk) }

// DropCaches empties the block cache without touching any state — the
// between-phases cache flush of a benchmark harness (echo 3 >
// /proc/sys/vm/drop_caches).
func (s *Store) DropCaches() { s.cache.reset() }

// Crash simulates a power failure: the page cache and the uncommitted
// transaction vanish; home and the journal survive. Recover replays the
// journal into the committed overlay, which is how the next mount would see
// the file system.
func (s *Store) Crash() {
	s.endTxn()
	s.dirty = make(map[int64][]byte)
	s.cache.reset()
}

// Recover replays committed journal records after a Crash.
func (s *Store) Recover() {
	for _, r := range s.jnl.Replay() {
		s.dirty[r.Block] = r.Data
	}
}
