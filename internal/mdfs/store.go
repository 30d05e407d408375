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
// Savepoints: the open transaction can hold several operations (the
// owner commits every few), so Abort does not discard it whole. It rewinds
// to the savepoint, the transaction's state when the last operation
// finished or when the transaction began. A block first joined since is
// dropped; a block that was already in the transaction gets back the
// pre-image of each byte range changed since — the Modify or WriteAt
// range, the whole block for Overwrite and Forget. A transaction that
// starts empty, as under synchronous commits, saves nothing.
//
// Frees: Forget voids a block in the open transaction only. It reads as
// zeroes from then on, but its committed content stays until the
// transaction commits — the free's revocation is part of the commit — so
// a crash or an Abort before that leaves the block as it was.
//
// Buffer ownership: the store owns every block buffer, and recycles it
// through four states. Open: the buffer is a block's txn buffer and
// belongs to the running transaction; Modify, Overwrite, Write and WriteAt
// mutate it in place — one buffer per block per transaction, however many
// sub-block updates it takes. Sealed: Commit hands it to the journal and
// makes it the block's dirty buffer, the checkpoint makes it the home
// buffer, and nobody writes to it again. Retired: a checkpoint replaced it
// as home, a committed free dropped it, or Forget or Abort discarded it;
// it waits for the next checkpoint, which releases the journal's records
// — a revoked block's last record among them. Free: the buffer waits on
// the free list for the next block a transaction opens. A dirty buffer
// goes there straight from the commit that supersedes it, since the
// journal keeps one record per block and that commit replaced the block's
// record too. The shared zero block, what a never-written block reads as,
// is never written at all.
//
// Slices returned by Read, ReadRange and StoreView.Read alias these
// buffers, are read-only, and stay valid until the next Commit or
// Checkpoint — after that the buffer may be recycled. One that aliases an
// open buffer also sees the transaction's later writes, so callers decode
// what they read before they write the same block.
type Store struct {
	d         *disk.Disk
	sched     *iosched.Elevator
	blockSize int

	// pages is the block table: page p holds the state of blocks
	// [p<<pageShift, (p+1)<<pageShift), allocated when one of them is
	// first written or cached.
	pages []*[pageBlocks]blockState
	order []int64          // the blocks the open transaction holds, in the order it took them
	freed []int64          // the blocks the open transaction frees, in the order it freed them
	recs  []journal.Record // Commit's scratch; the journal does not keep it
	reqs  []iosched.Request
	zero  []byte // what a never-written block reads as

	// retired buffers wait for the journal to let go of them; free ones
	// are ready for reuse.
	retired [][]byte
	free    [][]byte

	// The savepoint: order[:spOrder] and freed[:spFreed] predate it, and
	// pre lists the pre-images of what changed since in those blocks,
	// their bytes concatenated in preBytes. The seeds hold an operation's
	// usual share, so a mount allocates nothing for them.
	spOrder, spFreed int
	pre              []preImage
	preBytes         []byte
	preSeed          [8]preImage
	preBytesSeed     [1024]byte

	cache blockLRU

	jnl   *journal.Journal
	stats StoreStats

	// crash, when armed, kills the mount at the store's named crash
	// points (nil-safe: nil is a no-op).
	crash *crashsim.Injector
}

// blockState is one block's buffers, nil where the block has none: its
// home content, its committed-but-uncheckpointed content (the dirty
// overlay), and the open transaction's buffer.
type blockState struct {
	home, dirty, txn []byte
	// at is the block's index in the open transaction's order while it
	// has a txn buffer; below spOrder, the buffer predates the savepoint.
	at int32
	// lru is the block's node in the block cache, 0 when it is not
	// resident.
	lru int32
	// void marks a block the open transaction freed: it reads as zeroes
	// unless rewritten, and its committed content goes when the
	// transaction commits.
	void bool
}

// preImage is the content a byte range of a block's txn buffer had at the
// savepoint.
type preImage struct {
	blk    int64
	off, n int
	at     int32 // the block's order index, should Abort have to re-open it
}

// committed returns the block's bytes as of the last commit, nil if it has
// never been written or the open transaction freed it.
func (st *blockState) committed() []byte {
	if st.void {
		return nil
	}
	if st.dirty != nil {
		return st.dirty
	}
	return st.home
}

// A page of the block table covers pageBlocks consecutive blocks.
const (
	pageShift  = 6
	pageBlocks = 1 << pageShift
)

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
		pages:     make([]*[pageBlocks]blockState, (d.NBlocks()+pageBlocks-1)/pageBlocks),
		zero:      make([]byte, d.Config().BlockSize),
		cache:     newBlockLRU(cacheCap),
	}
	s.jnl = journal.New(d, journalStart, journalBlocks, s.applyCheckpoint)
	s.pre, s.preBytes = s.preSeed[:0], s.preBytesSeed[:0]
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

// DirtyBlocks returns the size of the committed-but-uncheckpointed overlay —
// after LoadImage, the number of blocks journal replay had to repair.
// miffsck's exit-code contract distinguishes "clean" from "repaired" with
// it.
func (s *Store) DirtyBlocks() int {
	n := 0
	s.eachBlock(func(_ int64, st *blockState) {
		if st.dirty != nil {
			n++
		}
	})
	return n
}

// BlockSize returns the block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// lookup returns blk's state, or nil when no block of its page has been
// written — or blk is outside the device, which reads as never written.
func (s *Store) lookup(blk int64) *blockState {
	if p := uint64(blk) >> pageShift; p < uint64(len(s.pages)) && s.pages[p] != nil {
		return &s.pages[p][blk&(pageBlocks-1)]
	}
	return nil
}

// state returns blk's state, allocating its page on first use.
func (s *Store) state(blk int64) *blockState {
	p := uint64(blk) >> pageShift
	if p >= uint64(len(s.pages)) {
		panic(fmt.Sprintf("mdfs: block %d outside the %d-block device", blk, s.d.NBlocks()))
	}
	if s.pages[p] == nil {
		s.pages[p] = new([pageBlocks]blockState)
	}
	return &s.pages[p][blk&(pageBlocks-1)]
}

// eachBlock calls f with the state of every block on an allocated page, in
// block order; many of them may be empty.
func (s *Store) eachBlock(f func(blk int64, st *blockState)) {
	for p, page := range s.pages {
		if page == nil {
			continue
		}
		for i := range page {
			f(int64(p)<<pageShift|int64(i), &page[i])
		}
	}
}

// content returns the current bytes of a block: transaction overlay first,
// then the committed overlay, then home — unless the open transaction
// freed the block — then the shared zero block for a block never written
// anywhere. The result aliases internal state and is read-only. (A switch,
// not committed(), keeps it within the inliner's budget: it is on every
// read.)
func (s *Store) content(blk int64) []byte {
	st := s.lookup(blk)
	switch {
	case st == nil:
	case st.txn != nil:
		return st.txn
	case st.void:
	case st.dirty != nil:
		return st.dirty
	case st.home != nil:
		return st.home
	}
	return s.zero
}

// charge accounts one logical block read: a cache hit, or a disk read that
// makes the block resident.
func (s *Store) charge(blk int64) {
	s.stats.Reads++
	if s.cache.touch(s.state(blk)) {
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
		if s.cache.touch(s.state(b)) {
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
	copy(s.Overwrite(blk), data)
}

// Overwrite returns the transaction's buffer for blk, zeroed, for the
// caller to fill with the block's new content — a full-block write that
// encodes in place. It charges what Write charges: no read, the block
// becomes resident. The slice is valid until the next Commit, Abort or
// Forget.
func (s *Store) Overwrite(blk int64) []byte {
	st := s.state(blk)
	if st.txn != nil {
		s.keep(blk, st, 0, s.blockSize)
		clear(st.txn)
	} else {
		s.join(blk, st, nil)
	}
	s.stats.TxnWrites++
	s.cache.touch(st)
	return st.txn
}

// WriteAt updates a byte range within one block: a Modify that copies data
// in.
func (s *Store) WriteAt(blk int64, off int, data []byte) {
	copy(s.Modify(blk, off, len(data)), data)
}

// Modify returns bytes [off, off+n) of the transaction's buffer for blk,
// holding the block's current content, for the caller to update in place —
// a read-modify-write, like touching one inode record in an inode-table
// block, so the read is charged. A block that has never been written
// anywhere, or that the transaction freed, is newly allocated — the file
// system knows its on-disk content is void, so no read is charged. The
// slice is valid until the next Commit, Abort or Forget.
func (s *Store) Modify(blk int64, off, n int) []byte {
	if off < 0 || n < 0 || off+n > s.blockSize {
		panic(fmt.Sprintf("mdfs: Modify [%d,+%d) outside block", off, n))
	}
	st := s.state(blk)
	if st.txn != nil {
		s.charge(blk)
		s.keep(blk, st, off, n)
	} else {
		cur := st.committed()
		if cur != nil {
			s.charge(blk)
		} else {
			s.cache.touch(st)
		}
		s.join(blk, st, cur)
	}
	s.stats.TxnWrites++
	return st.txn[off : off+n]
}

// join adds blk, whose state is st, to the open transaction with a buffer
// of its own holding a copy of content — the one block copy the
// transaction pays for blk.
func (s *Store) join(blk int64, st *blockState, content []byte) {
	st.txn = s.buffer(content)
	st.at = int32(len(s.order))
	s.order = append(s.order, blk)
}

// keep saves the pre-image of bytes [off, off+n) of blk's txn buffer when
// the buffer predates the savepoint; a block joined since needs none, as
// Abort drops it whole.
func (s *Store) keep(blk int64, st *blockState, off, n int) {
	if int(st.at) >= s.spOrder {
		return
	}
	s.pre = append(s.pre, preImage{blk: blk, off: off, n: n, at: st.at})
	s.preBytes = append(s.preBytes, st.txn[off:off+n]...)
}

// buffer returns a block buffer holding a copy of content (zeroes past
// it), taken off the free list when one is waiting there.
func (s *Store) buffer(content []byte) []byte {
	n := len(s.free)
	if n == 0 {
		buf := make([]byte, s.blockSize)
		copy(buf, content)
		return buf
	}
	buf := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	clear(buf[copy(buf, content):])
	return buf
}

// retire records that buf has left the last overlay holding it. The
// journal may still hold it, or a slice read before the next commit alias
// it, so it waits for release.
func (s *Store) retire(buf []byte) { s.retired = append(s.retired, buf) }

// release frees the retired buffers. It runs once a checkpoint has reset
// the journal, which then holds no record's buffer.
func (s *Store) release() {
	s.free = append(s.free, s.retired...)
	clear(s.retired)
	s.retired = s.retired[:0]
}

// Forget frees a block in the open transaction (see Frees above): from
// now on it reads as zeroes, and a later reallocation writes it fresh
// without a read — a freed block's on-disk bytes are void. Commit revokes
// the block in the journal — without the revoke, a pending journaled
// write would resurrect the stale contents at the next checkpoint or
// crash replay — and drops its committed content.
func (s *Store) Forget(blk int64) {
	if st := s.lookup(blk); st != nil {
		// A pending write to a freed block is void too.
		if st.txn != nil {
			s.keep(blk, st, 0, s.blockSize)
			s.retire(st.txn)
			st.txn = nil
		}
		st.void = true
		s.cache.remove(st)
	}
	s.freed = append(s.freed, blk)
}

// Commit journals the current transaction, its frees included. The home
// blocks are written later, at checkpoint time. The transaction's buffers
// pass to the journal and the committed overlay, and are immutable from
// here on; the buffers they supersede in the overlay are free at once, as
// the journal let go of them too, and the committed content of the blocks
// it frees retires.
func (s *Store) Commit() error {
	if len(s.order) == 0 && len(s.freed) == 0 {
		return nil
	}
	records := s.recs[:0]
	for _, blk := range s.order {
		// Blocks written then freed within this transaction carry no
		// data; a nil overlay entry would shadow home and corrupt saved
		// images.
		if data := s.lookup(blk).txn; data != nil {
			records = append(records, journal.Record{Block: blk, Data: data})
		}
	}
	s.recs = records
	if len(records) > 0 {
		// Crash point: the transaction is assembled in memory and
		// nothing has touched the journal — a power failure here loses
		// it whole, which is exactly what an uncommitted transaction is
		// allowed to do.
		if _, ok := s.crash.Hit(crashsim.PtMdfsCommitBegin, int64(len(records))); ok {
			s.crash.Kill()
		}
	}
	checkpoints := s.jnl.Stats().Checkpoints
	for _, blk := range s.freed {
		s.jnl.Revoke(blk)
	}
	if _, err := s.jnl.Commit(records); err != nil {
		return err
	}
	if s.jnl.Stats().Checkpoints != checkpoints {
		// The region was full: the journal checkpointed before it took
		// this transaction's records.
		s.release()
	}
	// The frees are durable. The journal may still hold a freed block's
	// last record, so its buffers retire only now, after the release.
	for _, blk := range s.freed {
		if st := s.lookup(blk); st != nil && st.void {
			for _, buf := range [...][]byte{st.home, st.dirty} {
				if buf != nil {
					s.retire(buf)
				}
			}
			st.home, st.dirty, st.void = nil, nil, false
		}
	}
	for _, r := range records {
		st := s.lookup(r.Block)
		// A block freed and rewritten within the transaction appears
		// twice in it, with one buffer.
		if st.dirty != nil && &st.dirty[0] != &r.Data[0] {
			s.free = append(s.free, st.dirty)
		}
		st.dirty = r.Data
	}
	s.endTxn()
	return nil
}

// savepoint marks the open transaction's current state as the one Abort
// rewinds to.
func (s *Store) savepoint() {
	s.spOrder, s.spFreed = len(s.order), len(s.freed)
	s.pre, s.preBytes = s.pre[:0], s.preBytes[:0]
}

// Abort rewinds the open transaction to its savepoint: the blocks it
// joined since are dropped, their buffers retiring, the older blocks get
// their pre-images back, and the frees made since are undone. Right after
// a Commit, that discards the whole transaction.
func (s *Store) Abort() {
	for _, blk := range s.order[s.spOrder:] {
		if st := s.lookup(blk); st.txn != nil {
			s.retire(st.txn)
			st.txn = nil
		}
	}
	s.order = s.order[:s.spOrder]
	end := len(s.preBytes)
	for i := len(s.pre) - 1; i >= 0; i-- {
		p := s.pre[i]
		st := s.lookup(p.blk)
		if st.txn == nil { // freed since, taking its buffer along
			st.txn, st.at = s.buffer(nil), p.at
		}
		end -= p.n
		copy(st.txn[p.off:], s.preBytes[end:end+p.n])
	}
	s.setVoid(s.freed[s.spFreed:], false)
	s.freed = s.freed[:s.spFreed]
	s.setVoid(s.freed, true) // a block freed twice was un-voided above
	s.savepoint()
}

// setVoid marks the freed blocks void or not.
func (s *Store) setVoid(blocks []int64, void bool) {
	for _, blk := range blocks {
		if st := s.lookup(blk); st != nil {
			st.void = void
		}
	}
}

// endTxn empties the transaction overlay, keeping its storage for the next
// transaction.
func (s *Store) endTxn() {
	for _, blk := range s.order {
		s.lookup(blk).txn = nil
	}
	s.setVoid(s.freed, false)
	s.order, s.freed = s.order[:0], s.freed[:0]
	s.savepoint()
}

// Checkpoint forces the journaled updates to their home locations, then
// frees the retired buffers: the journal holds none of them any more.
func (s *Store) Checkpoint() {
	s.jnl.Checkpoint()
	s.release()
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
			s.lookup(records[i].Block).home = records[i].Data
		}
		if dmg.Victim >= 0 {
			stray := make([]byte, len(records[dmg.Persisted].Data))
			copy(stray, records[dmg.Persisted].Data)
			s.lookup(records[dmg.Victim].Block).home = stray
		}
		s.crash.Kill()
	}
	reqs := s.reqs[:0]
	for _, r := range records {
		st := s.lookup(r.Block)
		if st.home != nil {
			s.retire(st.home)
		}
		st.home, st.dirty = r.Data, nil
		reqs = append(reqs, iosched.Request{Start: r.Block, Count: 1, Write: true})
	}
	s.reqs = reqs
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
// transaction, its frees included, vanish; home and the journal survive. A
// free whose revocation the journal took before the power failed is
// durable, so the block's home content is void. Recover replays the
// journal into the committed overlay, which is how the next mount would see
// the file system. The dropped buffers are not recycled: a crash inside a
// commit can leave the journal holding the transaction's buffers.
func (s *Store) Crash() {
	for _, blk := range s.freed {
		if st := s.lookup(blk); st != nil && s.jnl.Revoked(blk) {
			st.home = nil
		}
	}
	s.endTxn()
	s.eachBlock(func(_ int64, st *blockState) { st.dirty = nil })
	s.cache.reset()
}

// Recover replays committed journal records after a Crash.
func (s *Store) Recover() {
	for _, r := range s.jnl.Replay() {
		st := s.state(r.Block)
		// A checkpoint that died after writing this block home left home
		// sharing the journal's buffer. Home gets a copy of its own, so
		// the next checkpoint, which replaces it, retires a buffer only
		// home held.
		if st.home != nil && &st.home[0] == &r.Data[0] {
			st.home = s.buffer(st.home)
		}
		st.dirty = r.Data
	}
}
