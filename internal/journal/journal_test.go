package journal

import (
	"fmt"
	"testing"

	"redbud/internal/disk"
	"redbud/internal/sim"
)

func newJournal(t *testing.T, size int64, cp CheckpointFunc) (*Journal, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(), 1<<18)
	if cp == nil {
		cp = func([]Record) sim.Ns { return 0 }
	}
	return New(d, 1, size, cp), d
}

func rec(block int64, b byte) Record {
	return Record{Block: block, Data: []byte{b}}
}

func TestCommitAppendsSequentially(t *testing.T) {
	j, d := newJournal(t, 256, nil)
	if _, err := j.Commit([]Record{rec(1000, 1), rec(2000, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit([]Record{rec(3000, 3)}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// First commit positions once (cold head); the second continues
	// sequentially.
	if st.SeqAccesses == 0 {
		t.Fatalf("journal appends should be sequential: %+v", st)
	}
	js := j.Stats()
	if js.Commits != 2 || js.Records != 3 || js.JournalBlocks != 5 {
		t.Fatalf("stats = %+v", js)
	}
}

func TestCheckpointDedupesLastWriteWins(t *testing.T) {
	var got []Record
	j, _ := newJournal(t, 256, func(rs []Record) sim.Ns {
		got = append([]Record(nil), rs...)
		return 0
	})
	j.Commit([]Record{rec(5, 1), rec(9, 1)})
	j.Commit([]Record{rec(5, 2)})
	j.Checkpoint()
	if len(got) != 2 {
		t.Fatalf("checkpoint batch = %v, want 2 records", got)
	}
	if got[0].Block != 5 || got[0].Data[0] != 2 {
		t.Fatalf("block 5 should carry the last write, got %v", got[0])
	}
	if got[1].Block != 9 {
		t.Fatalf("batch should be sorted by block: %v", got)
	}
	if j.PendingRecords() != 0 {
		t.Fatal("checkpoint should clear pending records")
	}
}

func TestRegionFullForcesCheckpoint(t *testing.T) {
	checkpoints := 0
	j, _ := newJournal(t, 16, func([]Record) sim.Ns {
		checkpoints++
		return 0
	})
	// Each commit consumes 3+1 blocks; the 16-block region fits 4.
	for i := 0; i < 10; i++ {
		records := []Record{rec(int64(i)*10, 0), rec(int64(i)*10+1, 0), rec(int64(i)*10+2, 0)}
		if _, err := j.Commit(records); err != nil {
			t.Fatal(err)
		}
	}
	if checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (forced every 4 commits)", checkpoints)
	}
}

func TestOversizedTransactionRejected(t *testing.T) {
	j, _ := newJournal(t, 4, nil)
	var records []Record
	for i := 0; i < 5; i++ {
		records = append(records, rec(int64(i), 0))
	}
	if _, err := j.Commit(records); err == nil {
		t.Fatal("transaction larger than region should fail")
	}
}

func TestReplayReturnsCommittedState(t *testing.T) {
	j, _ := newJournal(t, 256, nil)
	j.Commit([]Record{rec(1, 10), rec(2, 20)})
	j.Commit([]Record{rec(1, 11)})
	rs := j.Replay()
	if len(rs) != 2 || rs[0].Data[0] != 11 || rs[1].Data[0] != 20 {
		t.Fatalf("Replay = %v", rs)
	}
	// Replay is non-destructive.
	if j.PendingRecords() != 3 {
		t.Fatalf("PendingRecords = %d, want 3", j.PendingRecords())
	}
}

// The journal keeps the payload buffers it is handed (the caller gives them
// up) but not the records slice, which callers reuse between commits.
func TestCommitKeepsPayloadsNotTheSlice(t *testing.T) {
	j, _ := newJournal(t, 256, nil)
	data := []byte{42}
	recs := []Record{{Block: 7, Data: data}}
	j.Commit(recs)
	recs[0] = Record{Block: 8, Data: []byte{99}}
	j.Commit(recs)
	rs := j.Replay()
	if len(rs) != 2 || rs[0].Block != 7 || rs[0].Data[0] != 42 || rs[1].Block != 8 || rs[1].Data[0] != 99 {
		t.Fatalf("Replay = %v, want block 7 = 42 and block 8 = 99", rs)
	}
	if &rs[0].Data[0] != &data[0] {
		t.Fatal("journal copied a payload it was given to keep")
	}
}

func TestEmptyCommitIsFree(t *testing.T) {
	j, d := newJournal(t, 256, nil)
	cost, err := j.Commit(nil)
	if err != nil || cost != 0 {
		t.Fatalf("empty commit = (%d,%v), want (0,nil)", cost, err)
	}
	if d.Stats().Requests != 0 {
		t.Fatal("empty commit should not touch the disk")
	}
}

func TestWrapAroundKeepsAccounting(t *testing.T) {
	j, _ := newJournal(t, 10, nil)
	// 4-block transactions; region holds 2 at a time and wraps.
	for i := 0; i < 7; i++ {
		records := []Record{rec(int64(i), 0), rec(int64(i)+100, 0), rec(int64(i)+200, 0)}
		if _, err := j.Commit(records); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if j.Stats().JournalBlocks != 28 {
		t.Fatalf("JournalBlocks = %d, want 28", j.Stats().JournalBlocks)
	}
}

func TestRevokeSuppressesCheckpointAndReplay(t *testing.T) {
	var applied []Record
	j, _ := newJournal(t, 256, func(rs []Record) sim.Ns {
		applied = append(applied, rs...)
		return 0
	})
	j.Commit([]Record{rec(7, 1), rec(8, 2)})
	// Block 7 is freed: its journaled write must be neither replayed
	// nor checkpointed — the ext3 revoke-record semantics.
	j.Revoke(7)
	if rs := j.Replay(); len(rs) != 1 || rs[0].Block != 8 {
		t.Fatalf("Replay after revoke = %v, want only block 8", rs)
	}
	j.Checkpoint()
	if len(applied) != 1 || applied[0].Block != 8 {
		t.Fatalf("checkpoint applied %v, want only block 8", applied)
	}
}

func TestWriteAfterRevokeWins(t *testing.T) {
	j, _ := newJournal(t, 256, nil)
	j.Commit([]Record{rec(7, 1)})
	j.Revoke(7)                   // freed...
	j.Commit([]Record{rec(7, 9)}) // ...then reallocated and rewritten
	rs := j.Replay()
	if len(rs) != 1 || rs[0].Data[0] != 9 {
		t.Fatalf("Replay = %v, want the post-revoke write", rs)
	}
}

func TestRevokeChargesJournalSpace(t *testing.T) {
	j, _ := newJournal(t, 256, nil)
	j.Revoke(5)
	j.Commit([]Record{rec(1, 1)})
	// 1 record + 1 commit + 1 revoke block.
	if got := j.Stats().JournalBlocks; got != 3 {
		t.Fatalf("JournalBlocks = %d, want 3 (record+commit+revoke)", got)
	}
	// The next commit without revokes is back to 2 blocks.
	j.Commit([]Record{rec(2, 1)})
	if got := j.Stats().JournalBlocks; got != 5 {
		t.Fatalf("JournalBlocks = %d, want 5", got)
	}
}

func TestCheckpointClearsRevocations(t *testing.T) {
	j, _ := newJournal(t, 256, nil)
	j.Commit([]Record{rec(7, 1)})
	j.Revoke(7)
	j.Checkpoint()
	// A fresh write to block 7 after the checkpoint is fully live.
	j.Commit([]Record{rec(7, 5)})
	rs := j.Replay()
	if len(rs) != 1 || rs[0].Data[0] != 5 {
		t.Fatalf("Replay = %v, want the new write to 7", rs)
	}
}

func ExampleJournal() {
	d := disk.New(disk.DefaultConfig(), 4096)
	j := New(d, 1, 64, func(rs []Record) sim.Ns {
		fmt.Printf("checkpoint of %d blocks\n", len(rs))
		return 0
	})
	j.Commit([]Record{{Block: 100, Data: []byte("inode")}})
	j.Commit([]Record{{Block: 100, Data: []byte("inode v2")}, {Block: 200, Data: []byte("dirent")}})
	j.Checkpoint()
	// Output: checkpoint of 2 blocks
}
