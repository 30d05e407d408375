package journal

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/sim"
)

// refJournal is the journal's bookkeeping as it was before it kept one
// record per block: every committed record is appended, revocations live
// in a table of their own, and each checkpoint or replay deduplicates
// through a map, the last write per block winning. It models no disk: the
// region's fill level is all it needs to checkpoint when Journal does.
type refJournal struct {
	size, live  int64
	committed   []refRecord
	seq         int64
	revoked     map[int64]int64 // block → revocation sequence
	staged      []int64
	revokesNew  int
	pinned      []refRecord
	batches     [][]Record // every checkpoint batch, in order
	checkpoints int64
}

type refRecord struct {
	Record
	seq int64
}

func newRefJournal(size int64) *refJournal {
	return &refJournal{size: size, revoked: make(map[int64]int64)}
}

func (j *refJournal) Revoke(block int64) { j.staged = append(j.staged, block) }

func (j *refJournal) Revoked(block int64) bool {
	rev, ok := j.revoked[block]
	if !ok {
		return false
	}
	for _, r := range j.committed {
		if r.Block == block && r.seq > rev {
			return false
		}
	}
	return true
}

func (j *refJournal) applyRevokes(blocks []int64) {
	for _, b := range blocks {
		j.seq++
		j.revoked[b] = j.seq
	}
}

func (j *refJournal) retain(records []Record) {
	for _, r := range records {
		j.seq++
		j.committed = append(j.committed, refRecord{Record: r, seq: j.seq})
	}
}

// Commit mirrors Journal.Commit. kill is the crash the real journal's
// commit died of, nil if it completed.
func (j *refJournal) Commit(records []Record, kill *crashsim.Crash) {
	revokes := slices.Clone(j.staged)
	j.staged = j.staged[:0]
	if len(records) == 0 {
		j.applyRevokes(revokes)
		j.revokesNew += len(revokes)
		return
	}
	need := int64(len(records)) + 1
	if j.revokesNew > 0 || len(revokes) > 0 {
		need++
		j.revokesNew = 0
	}
	if j.live+need > j.size {
		j.checkpointPinning(revokes)
	}
	if kill != nil {
		if kill.Point == crashsim.PtJournalAppendCommit && kill.Damage.AllPersisted() {
			j.applyRevokes(revokes)
			j.retain(records)
		}
		return
	}
	j.live += need
	j.applyRevokes(revokes)
	j.retain(records)
}

func (j *refJournal) Checkpoint() { j.checkpointPinning(nil) }

func (j *refJournal) checkpointPinning(pin []int64) {
	if len(j.committed) == 0 {
		j.reset()
		return
	}
	if batch := j.dedupe(pin); len(batch) > 0 {
		j.batches = append(j.batches, batch)
	}
	j.checkpoints++
	j.reset()
	j.committed = append(j.committed, j.pinned...)
}

func (j *refJournal) reset() {
	j.committed = j.committed[:0]
	clear(j.revoked)
	j.revokesNew = 0
	j.live = 0
}

func (j *refJournal) Replay() []Record { return j.dedupe(nil) }

func (j *refJournal) dedupe(pin []int64) []Record {
	last := map[int64]refRecord{}
	for _, r := range j.committed {
		last[r.Block] = r
	}
	j.pinned = nil
	for _, b := range pin {
		if r, ok := last[b]; ok {
			if rev, ok := j.revoked[b]; !ok || r.seq > rev {
				j.pinned = append(j.pinned, r)
			}
			delete(last, b)
		}
	}
	var out []Record
	for b, r := range last {
		if rev, ok := j.revoked[b]; ok && r.seq < rev {
			continue
		}
		out = append(out, Record{Block: b, Data: r.Data})
	}
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.Block, b.Block) })
	return out
}

// sameRecords reports whether two sorted record lists name the same
// blocks with the same buffers.
func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Block == y.Block && &x.Data[0] == &y.Data[0]
	})
}

func describe(rs []Record) string {
	out := ""
	for _, r := range rs {
		out += fmt.Sprintf(" %d=%d", r.Block, r.Data[0])
	}
	return "[" + out + " ]"
}

// TestJournalMatchesReference runs the journal beside the append-and-dedupe
// algorithm it replaced, on a seeded mix of rewrites, revocations (staged
// alone, or freeing and rewriting a block in one commit), explicit
// checkpoints, commits that force a checkpoint while revocations are staged
// (the pinning path), and commits killed at the record and commit-block
// crash points. The region is small and the blocks few, so every commit
// rewrites blocks with pending records and every few force a checkpoint.
// After every step Replay, Revoked and the checkpoint count must agree,
// and so must every checkpoint batch, buffer for buffer.
func TestJournalMatchesReference(t *testing.T) {
	const (
		size   = 24
		blocks = 12
		steps  = 20_000
	)
	var batches [][]Record
	j, _ := newJournal(t, size, func(rs []Record) sim.Ns {
		batches = append(batches, slices.Clone(rs))
		return 0
	})
	ref := newRefJournal(size)
	rng := sim.NewRand(7)
	var stamp byte
	buffer := func() []byte {
		stamp++
		return []byte{stamp}
	}
	kills, pinned := map[string]int{}, 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 15:
			b := int64(rng.Intn(blocks))
			j.Revoke(b)
			ref.Revoke(b)
		case op < 90:
			var records []Record
			for n := rng.Intn(6); len(records) < n; {
				b := int64(rng.Intn(blocks))
				switch r := rng.Intn(10); {
				case r == 0 && len(records) > 0:
					// The store lists a block freed and rewritten within
					// a transaction twice, with one buffer.
					records = append(records, records[rng.Intn(len(records))])
				case r == 1:
					j.Revoke(b) // freed, then rewritten in this commit
					ref.Revoke(b)
					fallthrough
				default:
					records = append(records, Record{Block: b, Data: buffer()})
				}
			}
			var in *crashsim.Injector
			if rng.Intn(20) == 0 {
				point := crashsim.PtJournalAppendCommit
				if rng.Intn(3) == 0 {
					point = crashsim.PtJournalAppendRecs
				}
				modes := []disk.TearMode{disk.TearNone, disk.TearTorn, disk.TearLost, disk.TearMisdirected}
				in = crashsim.Arm(point, 1, modes[rng.Intn(len(modes))], rng.Uint64())
				j.SetCrashInjector(in)
			}
			checkpoints := j.Stats().Checkpoints
			staged := len(j.staged)
			func() {
				defer func() {
					if r := recover(); r != nil && r != in.Fired() {
						panic(r)
					}
				}()
				if _, err := j.Commit(records); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}()
			j.SetCrashInjector(nil)
			if c := in.Fired(); c != nil {
				kills[c.Point]++
			}
			if staged > 0 && j.Stats().Checkpoints != checkpoints {
				pinned++
			}
			ref.Commit(records, in.Fired())
		default:
			j.Checkpoint()
			ref.Checkpoint()
		}
		if !slices.EqualFunc(batches, ref.batches, sameRecords) {
			t.Fatalf("step %d: checkpoint batches differ (%d batches, want %d)", step, len(batches), len(ref.batches))
		}
		if got, want := j.Stats().Checkpoints, ref.checkpoints; got != want {
			t.Fatalf("step %d: %d checkpoints, want %d", step, got, want)
		}
		if got, want := j.Replay(), ref.Replay(); !sameRecords(got, want) {
			t.Fatalf("step %d: Replay = %s, want %s", step, describe(got), describe(want))
		}
		for b := int64(0); b < blocks; b++ {
			if got, want := j.Revoked(b), ref.Revoked(b); got != want {
				t.Fatalf("step %d: Revoked(%d) = %v, want %v", step, b, got, want)
			}
		}
	}
	if kills[crashsim.PtJournalAppendCommit] == 0 || kills[crashsim.PtJournalAppendRecs] == 0 || pinned == 0 || len(batches) == 0 {
		t.Fatalf("the run missed a path: kills %v, %d forced checkpoints with staged revocations, %d batches", kills, pinned, len(batches))
	}
	t.Logf("%d batches, kills %v, %d forced checkpoints with staged revocations", len(batches), kills, pinned)
}
