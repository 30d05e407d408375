package mdfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/journal"
	"redbud/internal/sim"
)

func newStore(t *testing.T, cacheCap int) *Store {
	t.Helper()
	d := disk.New(disk.DefaultConfig(), 1<<16)
	return NewStore(d, 1, 256, cacheCap, 64)
}

func blockOf(s *Store, b byte) []byte {
	buf := make([]byte, s.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestStoreReadThroughCache(t *testing.T) {
	s := newStore(t, 8)
	s.Write(1000, blockOf(s, 7))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	// First read after writing is a hit (the write made it resident).
	got := s.Read(1000)
	if got[0] != 7 {
		t.Fatalf("content = %d, want 7", got[0])
	}
	if s.Stats().CacheHits != before.CacheHits+1 {
		t.Fatal("read of freshly written block should hit the cache")
	}
	s.DropCaches()
	before = s.Stats()
	s.Read(1000)
	if s.Stats().DiskReads != before.DiskReads+1 {
		t.Fatal("cold read should go to disk")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := newStore(t, 4)
	for b := int64(0); b < 8; b++ {
		s.Read(2000 + b)
	}
	before := s.Stats()
	s.Read(2000) // evicted by the later 7 reads
	if s.Stats().DiskReads != before.DiskReads+1 {
		t.Fatal("evicted block should re-read from disk")
	}
	s.Read(2007) // still resident
	if s.Stats().CacheHits != before.CacheHits+1 {
		t.Fatal("most-recent block should still be cached")
	}
}

func TestStoreReadRangeMergesMisses(t *testing.T) {
	s := newStore(t, 64)
	d := s.Disk()
	before := d.Stats().Requests
	s.ReadRange(3000, 16)
	if got := d.Stats().Requests - before; got != 1 {
		t.Fatalf("contiguous cold range should be one disk request, got %d", got)
	}
	// A cached block in the middle splits the run.
	s.DropCaches()
	s.Read(3008)
	before = d.Stats().Requests
	s.ReadRange(3000, 16)
	if got := d.Stats().Requests - before; got != 2 {
		t.Fatalf("range with a cached hole should be two requests, got %d", got)
	}
}

func TestStoreAbortDiscardsTxn(t *testing.T) {
	s := newStore(t, 8)
	s.Write(4000, blockOf(s, 9))
	s.Abort()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Read(4000); got[0] != 0 {
		t.Fatalf("aborted write visible: %d", got[0])
	}
}

func TestStoreWriteAtPartialUpdate(t *testing.T) {
	s := newStore(t, 8)
	s.Write(5000, blockOf(s, 1))
	s.WriteAt(5000, 10, []byte{2, 2, 2})
	got := s.Read(5000)
	want := blockOf(s, 1)
	copy(want[10:], []byte{2, 2, 2})
	if !bytes.Equal(got, want) {
		t.Fatal("WriteAt did not splice the range")
	}
}

func TestStoreWriteSizeChecked(t *testing.T) {
	s := newStore(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("short Write should panic")
		}
	}()
	s.Write(1, []byte{1, 2, 3})
}

func TestStoreCrashLosesUncommitted(t *testing.T) {
	s := newStore(t, 8)
	s.Write(6000, blockOf(s, 5))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Write(6001, blockOf(s, 6)) // uncommitted
	s.Crash()
	s.Recover()
	if got := s.Read(6000); got[0] != 5 {
		t.Fatal("committed write lost")
	}
	if got := s.Read(6001); got[0] != 0 {
		t.Fatal("uncommitted write survived the crash")
	}
}

func TestStoreForgetVoidsContent(t *testing.T) {
	s := newStore(t, 8)
	s.Write(7000, blockOf(s, 3))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	s.Forget(7000)
	if got := s.Read(7000); got[0] != 0 {
		t.Fatal("forgotten block should read as zeroes")
	}
	// Once the free commits, the journal must not resurrect it (revoked).
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Recover()
	if got := s.Read(7000); got[0] != 0 {
		t.Fatal("forgotten block resurrected by replay")
	}
}

// TestStoreFreeIsDurableWithItsCommit kills a transaction that frees a
// committed block (and writes another) at each point of its commit, with
// the freed block checkpointed home or still in the journal, and with a
// journal region so full that the commit checkpoints first. Until the
// commit block is written the free is not durable: after Recover the
// block holds its committed content. Once it is written, the block is
// void.
func TestStoreFreeIsDurableWithItsCommit(t *testing.T) {
	cases := []struct {
		point string
		mode  disk.TearMode
		void  bool
	}{
		{crashsim.PtMdfsCommitBegin, disk.TearNone, false},
		{crashsim.PtJournalAppendRecs, disk.TearNone, false},
		{crashsim.PtJournalAppendCommit, disk.TearLost, false},
		{crashsim.PtJournalAppendCommit, disk.TearNone, true},
	}
	for _, c := range cases {
		for _, home := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/home=%v/full=%v", c.point, c.mode, home, full)
				d := disk.New(disk.DefaultConfig(), 1<<16)
				s := NewStore(d, 1, 8, 8, 64)
				s.Write(7000, blockOf(s, 3))
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				if home {
					s.Checkpoint()
				}
				if full { // 6 of the region's 8 blocks live: the next commit, of 3, checkpoints first
					n := int64(3)
					if home {
						n = 5
					}
					for b := int64(0); b < n; b++ {
						s.Write(7100+b, blockOf(s, 1))
					}
					if err := s.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				s.Forget(7000)
				s.WriteAt(7001, 0, []byte{1})
				in := crashsim.Arm(c.point, 1, c.mode, 1)
				s.SetCrashInjector(in)
				func() {
					defer func() {
						if r := recover(); r != in.Fired() {
							panic(r)
						}
					}()
					s.Commit()
				}()
				if in.Fired() == nil {
					t.Fatalf("%s: the commit was not killed", name)
				}
				s.SetCrashInjector(nil)
				forced := s.Journal().Stats().Checkpoints > 0 && (!home || s.Journal().Stats().Checkpoints > 1)
				if c.point != crashsim.PtMdfsCommitBegin && forced != full {
					t.Fatalf("%s: the commit forced a checkpoint: %v", name, forced)
				}
				s.Crash()
				s.Recover()
				want := byte(3)
				if c.void {
					want = 0
				}
				if got := s.Read(7000); got[0] != want || got[len(got)-1] != want {
					t.Fatalf("%s: the freed block reads %d after recovery, want %d", name, got[0], want)
				}
			}
		}
	}
}

// The tests below pin the buffer-ownership rule: transaction buffers belong
// to the store and are mutated in place; once committed a buffer is shared
// with the journal and the overlays and never written again.

func TestStoreTxnCoalescesSubBlockWrites(t *testing.T) {
	s := newStore(t, 8)
	s.WriteAt(8000, 0, []byte{1, 2})
	s.WriteAt(8000, 100, []byte{3, 4})
	before := s.Journal().Stats().Records
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Journal().Stats().Records - before; got != 1 {
		t.Fatalf("two WriteAts to one block journaled %d records, want 1", got)
	}
	recs := s.Journal().Replay()
	if len(recs) != 1 || recs[0].Block != 8000 {
		t.Fatalf("Replay = %v", recs)
	}
	if d := recs[0].Data; d[0] != 1 || d[1] != 2 || d[100] != 3 || d[101] != 4 {
		t.Fatal("the journal record does not carry both updates")
	}
}

func TestStoreCommittedBuffersImmutable(t *testing.T) {
	s := newStore(t, 8)
	const blk = 8100
	s.Write(blk, blockOf(s, 1))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// The block now lives in the committed overlay and the journal.
	viaRead, viaView := s.Read(blk), s.View().Read(blk)
	s.WriteAt(blk, 0, []byte{9})
	s.Write(blk, blockOf(s, 7))
	if viaRead[0] != 1 || viaView[0] != 1 {
		t.Fatal("a later transaction wrote into a committed buffer")
	}
	if recs := s.Journal().Replay(); recs[0].Data[0] != 1 {
		t.Fatal("a later transaction wrote into a journal record")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	// And now in home.
	viaRead, viaView = s.Read(blk), s.View().Read(blk)
	if viaRead[0] != 7 {
		t.Fatalf("home content = %d, want 7", viaRead[0])
	}
	s.WriteAt(blk, 0, []byte{5})
	if viaRead[0] != 7 || viaView[0] != 7 {
		t.Fatal("a later transaction wrote into a home buffer")
	}
	// A never-written block reads as the shared zero block; writing the
	// block must not disturb it either.
	zero := s.Read(8101)
	s.WriteAt(8101, 3, []byte{1})
	if zero[3] != 0 || s.Read(8102)[3] != 0 {
		t.Fatal("a write reached the shared zero block")
	}
}

func TestStoreAbortRestoresContent(t *testing.T) {
	s := newStore(t, 8)
	s.Write(8200, blockOf(s, 4))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.WriteAt(8200, 0, []byte{8, 8})
	s.WriteAt(8201, 0, []byte{8})
	s.Abort()
	if got := s.Read(8200); got[0] != 4 || got[1] != 4 {
		t.Fatal("Abort did not restore the committed content")
	}
	if got := s.Read(8201); got[0] != 0 {
		t.Fatal("Abort left a block that was only ever written in the aborted transaction")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	pending := 0
	s.Journal().EachRecord(func(journal.Record) { pending++ })
	if pending != 1 {
		t.Fatalf("aborted writes reached the journal: %d pending records, want 1", pending)
	}
}

func TestStoreWriteThenForgetLeavesNoOverlay(t *testing.T) {
	s := newStore(t, 8)
	s.WriteAt(8300, 0, []byte{1})
	s.Write(8301, blockOf(s, 2))
	s.Forget(8300)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.lookup(8300); st != nil && st.dirty != nil {
		t.Fatal("a block written then freed within the transaction left an overlay entry")
	}
	if s.DirtyBlocks() != 1 {
		t.Fatalf("DirtyBlocks = %d, want 1", s.DirtyBlocks())
	}
	// Freed and rewritten within one transaction: the second write stands.
	s.Write(8302, blockOf(s, 3))
	s.Forget(8302)
	s.WriteAt(8302, 0, []byte{6})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Read(8302); got[0] != 6 || got[1] != 0 {
		t.Fatalf("rewritten block = [%d %d ...], want [6 0 ...]", got[0], got[1])
	}
}

// TestStoreRecyclingInvariant drives a seeded random mix of every store
// mutation — Write, WriteAt, in-place Modify and Overwrite, Forget, Commit,
// Checkpoint, savepoints, Abort, and crashes, some of them killed inside a
// commit or a checkpoint — against a plain map model of what a read
// returns, what an Abort returns to, and what survives a crash. After every step each touched block must read as the
// model says, and no buffer on the free list may share its backing array
// with a buffer the transaction, the overlays, home or the journal hold.
// The journal region is small and the blocks few, so checkpoints and
// buffer reuse happen constantly.
func TestStoreRecyclingInvariant(t *testing.T) {
	const (
		base   = 5000
		blocks = 24
		steps  = 20_000
	)
	d := disk.New(disk.DefaultConfig(), 1<<16)
	s := NewStore(d, 1, 64, 8, 64)
	bs := s.BlockSize()
	rng := sim.NewRand(11)
	cur := map[int64][]byte{}       // what a read returns
	committed := map[int64][]byte{} // what a crash leaves
	saved := committed              // what an Abort leaves: the savepoint
	contentOf := func(m map[int64][]byte, blk int64) []byte {
		if b, ok := m[blk]; ok {
			return b
		}
		return make([]byte, bs)
	}
	snapshot := func(m map[int64][]byte) map[int64][]byte {
		out := make(map[int64][]byte, len(m))
		for k, v := range m {
			out[k] = bytes.Clone(v)
		}
		return out
	}
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
	}
	span := func() (int, int) {
		off := rng.Intn(bs)
		return off, 1 + rng.Intn(min(bs-off, 300))
	}
	killPoints := []struct {
		point      string
		checkpoint bool
	}{
		{crashsim.PtMdfsCommitBegin, false},
		{crashsim.PtJournalAppendRecs, false},
		{crashsim.PtJournalAppendCommit, false},
		{crashsim.PtMdfsCheckpointHome, true},
		{crashsim.PtJournalCheckpointReset, true},
	}
	crashRecover := func() {
		s.Crash()
		s.Recover()
		cur = snapshot(committed)
		saved = committed
	}
	kills := map[string]int{}
	for step := 0; step < steps; step++ {
		blk := base + int64(rng.Intn(blocks))
		op := rng.Intn(100)
		if len(s.order) >= 40 {
			op = 80 // keep transactions inside the journal region
		}
		switch {
		case op < 18:
			data := make([]byte, bs)
			fill(data)
			s.Write(blk, data)
			cur[blk] = data
		case op < 40:
			off, n := span()
			data := make([]byte, n)
			fill(data)
			s.WriteAt(blk, off, data)
			want := bytes.Clone(contentOf(cur, blk))
			copy(want[off:], data)
			cur[blk] = want
		case op < 55:
			off, n := span()
			buf := s.Modify(blk, off, n)
			fill(buf)
			want := bytes.Clone(contentOf(cur, blk))
			copy(want[off:], buf)
			cur[blk] = want
		case op < 62:
			_, n := span()
			buf := s.Overwrite(blk)
			fill(buf[:n])
			cur[blk] = bytes.Clone(buf)
		case op < 68:
			s.Forget(blk) // durable, like a write, when it commits
			delete(cur, blk)
		case op < 85:
			if err := s.Commit(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			committed = snapshot(cur)
			saved = committed
		case op < 90:
			s.Checkpoint()
		case op < 92:
			s.savepoint()
			saved = snapshot(cur)
		case op < 95:
			s.Abort()
			cur = snapshot(saved)
		case op < 97:
			crashRecover()
		default:
			kp := killPoints[rng.Intn(len(killPoints))]
			modes := []disk.TearMode{disk.TearNone, disk.TearTorn, disk.TearLost, disk.TearMisdirected}
			in := crashsim.Arm(kp.point, 1, modes[rng.Intn(len(modes))], rng.Uint64())
			s.SetCrashInjector(in)
			func() {
				defer func() {
					if r := recover(); r != nil && r != in.Fired() {
						panic(r)
					}
				}()
				if kp.checkpoint {
					s.Checkpoint()
				} else if err := s.Commit(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}()
			s.SetCrashInjector(nil)
			c := in.Fired()
			switch {
			case c == nil && !kp.checkpoint:
				committed = snapshot(cur)
				saved = committed
			case c == nil:
			default:
				if c.Point == crashsim.PtJournalAppendCommit && c.Damage.AllPersisted() {
					committed = snapshot(cur) // the commit block made it
				}
				kills[c.Point]++
				crashRecover()
			}
		}
		checkStore(t, s, step, base, blocks, func(blk int64) []byte { return contentOf(cur, blk) })
	}
	for _, kp := range killPoints {
		if kills[kp.point] == 0 {
			t.Errorf("no run was killed at %s", kp.point)
		}
	}
	t.Logf("kills per point: %v", kills)
}

// checkStore asserts that blocks [base, base+n) read as want says and that
// the free list shares no backing array with a live buffer, with a retired
// one, or with itself.
func checkStore(t *testing.T, s *Store, step int, base, n int64, want func(int64) []byte) {
	t.Helper()
	for blk := base; blk < base+n; blk++ {
		if !bytes.Equal(s.View().Read(blk), want(blk)) {
			t.Fatalf("step %d: block %d does not read as the model says", step, blk)
		}
	}
	owner := map[*byte]string{}
	own := func(buf []byte, who string) {
		if buf != nil {
			owner[&buf[0]] = who
		}
	}
	s.eachBlock(func(_ int64, st *blockState) {
		own(st.home, "home")
		own(st.dirty, "dirty")
		own(st.txn, "txn")
	})
	s.Journal().EachRecord(func(r journal.Record) { own(r.Data, "a journal record") })
	for _, buf := range s.retired {
		if who, ok := owner[&buf[0]]; ok && who != "a journal record" {
			t.Fatalf("step %d: a retired buffer is still %s", step, who)
		}
	}
	for _, buf := range s.retired {
		owner[&buf[0]] = "retired"
	}
	owner[&s.zero[0]] = "the zero block"
	for _, buf := range s.free {
		if len(buf) != s.BlockSize() {
			t.Fatalf("step %d: a free buffer has %d bytes", step, len(buf))
		}
		if who, ok := owner[&buf[0]]; ok {
			t.Fatalf("step %d: a free buffer is also %s", step, who)
		}
		owner[&buf[0]] = "free"
	}
	if slices.ContainsFunc(s.zero, func(c byte) bool { return c != 0 }) {
		t.Fatalf("step %d: the zero block was written", step)
	}
}

// TestStoreSteadyStateAllocatesNothing pins the recycling win: once the
// free list is warm, a cycle of read-modify-writes and commits with a
// checkpoint at its end allocates nothing — not a block buffer, not a
// journal record slot, not a checkpoint batch or elevator request.
func TestStoreSteadyStateAllocatesNothing(t *testing.T) {
	s := newStore(t, 64)
	var stamp [8]byte
	cycle := func() {
		for i := int64(0); i < 32; i++ {
			stamp[0] = byte(i)
			s.WriteAt(9000+i%12, int(i)*8, stamp[:])
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		s.Checkpoint()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm write/commit/checkpoint cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestStoreRecyclesAtTheSupersedingCommit pins why a synchronous mount's
// free list does not run dry between checkpoints: a commit that supersedes
// a block's dirty buffer frees it at once, so a commit-per-operation loop
// makes new buffers by the distinct blocks it touches, not by its commits.
// Each run starts from an empty free list; the journal region holds every
// commit, so no checkpoint runs before the one that ends the run.
func TestStoreRecyclesAtTheSupersedingCommit(t *testing.T) {
	const blocks, commits = 12, 96
	s := newStore(t, 64)
	var stamp [8]byte
	run := func() {
		clear(s.free)
		s.free = s.free[:0]
		checkpoints := s.Journal().Stats().Checkpoints
		for i := int64(0); i < commits; i++ {
			stamp[0] = byte(i)
			s.WriteAt(9000+i%blocks, int(i)*8, stamp[:])
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if s.Journal().Stats().Checkpoints != checkpoints {
			t.Fatal("the journal checkpointed inside the run")
		}
		s.Checkpoint()
	}
	run() // the first checkpoint grows the retired and free lists
	// One buffer per block on its first commit, and one more for the
	// first rewrite, which finds the free list still empty.
	if allocs := testing.AllocsPerRun(5, run); allocs > blocks+1 {
		t.Fatalf("%d commits over %d blocks made %.0f buffers, want at most %d", commits, blocks, allocs, blocks+1)
	}
}
