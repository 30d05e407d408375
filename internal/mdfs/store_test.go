package mdfs

import (
	"bytes"
	"testing"

	"redbud/internal/disk"
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
	// And the journal must not resurrect it (revoked).
	s.Crash()
	s.Recover()
	if got := s.Read(7000); got[0] != 0 {
		t.Fatal("forgotten block resurrected by replay")
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
	if s.Journal().PendingRecords() != 1 {
		t.Fatalf("aborted writes reached the journal: %d pending records, want 1", s.Journal().PendingRecords())
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
	if _, ok := s.dirty[8300]; ok {
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
