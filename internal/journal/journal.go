// Package journal implements the write-ahead journal that guards the
// metadata file system's integrity, in the style of ext3's jbd ("to
// maintain the metadata integrity, journal was first sequentially done on
// the disk", paper §5.D).
//
// Transactions append sequentially to a circular journal region of the MDS
// disk — cheap, one positioning per commit burst — and the updated home
// blocks are written back later at checkpoint time. The paper's Figure 8
// improvements come almost entirely from the checkpoint side ("the
// reduction of disk access counts mainly comes from the checkpoint
// operations"), which is why the journal and checkpoint paths are modeled
// distinctly.
package journal

import (
	"fmt"
	"sort"

	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Record is one home-block update carried by a transaction.
type Record struct {
	// Block is the home location the data belongs to.
	Block int64
	// Data is the new block content. Commit keeps this buffer — it is
	// what checkpoint and replay hand back — so the caller must not
	// modify it afterwards.
	Data []byte
}

// CheckpointFunc writes a batch of records to their home locations and
// returns the simulated cost. The journal calls it when the region fills or
// when the owner forces a checkpoint. Records arrive deduplicated (last
// write per block wins) and sorted by home block.
type CheckpointFunc func(records []Record) sim.Ns

// Stats counts journal activity.
type Stats struct {
	// Commits is the number of committed transactions.
	Commits int64
	// Records is the number of records committed.
	Records int64
	// JournalBlocks is the number of blocks written to the journal
	// region (records plus one commit block per transaction).
	JournalBlocks int64
	// Checkpoints is the number of checkpoint rounds.
	Checkpoints int64
	// CheckpointBlocks is the number of distinct home blocks written
	// back across all checkpoints.
	CheckpointBlocks int64
}

// Journal is a circular write-ahead log over a region of one disk. It is
// not safe for concurrent use; the owning metadata file system serializes
// transactions.
type Journal struct {
	d          *disk.Disk
	start      int64
	size       int64
	head       int64 // next write offset within the region
	live       int64 // journal blocks holding un-checkpointed txns
	committed  []seqRecord
	seq        int64
	revoked    map[int64]int64 // block → revocation sequence
	revokesNew int             // revokes since the last commit (revoke-block accounting)
	checkpoint CheckpointFunc
	stats      Stats

	// commitHist, when attached, observes every Commit's device cost.
	commitHist *telemetry.Histogram

	// crash, when armed, kills the mount at the journal's named crash
	// points (nil-safe: nil is a no-op).
	crash *crashsim.Injector
}

// seqRecord orders committed records against revocations.
type seqRecord struct {
	Record
	seq int64
}

// New creates a journal over the disk region [start, start+size). The
// checkpoint function must be non-nil. A transaction larger than the region
// can never commit, so size must leave room for the largest expected
// transaction plus its commit block.
func New(d *disk.Disk, start, size int64, checkpoint CheckpointFunc) *Journal {
	if d == nil || checkpoint == nil {
		panic("journal: nil disk or checkpoint function")
	}
	if start < 0 || size < 2 || start+size > d.NBlocks() {
		panic(fmt.Sprintf("journal: bad region [%d,+%d) on %d-block disk", start, size, d.NBlocks()))
	}
	return &Journal{d: d, start: start, size: size, checkpoint: checkpoint, revoked: make(map[int64]int64)}
}

// Revoke marks a block's journaled contents void: a freed metadata block
// must be neither checkpointed to its home location nor replayed after a
// crash — otherwise its stale bytes resurrect when the block is
// reallocated (ext3's revoke records exist for exactly this). Writes
// committed after the revocation take effect normally. The revoke itself
// occupies journal space, charged as one revoke block per commit that
// carries revocations.
func (j *Journal) Revoke(block int64) {
	j.seq++
	j.revoked[block] = j.seq
	j.revokesNew++
}

// Stats returns a snapshot of the counters.
func (j *Journal) Stats() Stats { return j.stats }

// SetCrashInjector arms the journal's crash points for a sweep run.
func (j *Journal) SetCrashInjector(in *crashsim.Injector) { j.crash = in }

// Instrument publishes the journal counters into the registry and attaches
// a per-commit latency histogram. The journal is serialized by its owning
// metadata file system, so the collectors read its counters unlocked the
// same way Stats does.
func (j *Journal) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	j.commitHist = reg.Histogram("journal_commit_ns", labels)
	reg.CounterFunc("journal_commits", labels, func() int64 { return j.stats.Commits })
	reg.CounterFunc("journal_records", labels, func() int64 { return j.stats.Records })
	reg.CounterFunc("journal_blocks", labels, func() int64 { return j.stats.JournalBlocks })
	reg.CounterFunc("journal_checkpoints", labels, func() int64 { return j.stats.Checkpoints })
	reg.CounterFunc("journal_checkpoint_blocks", labels, func() int64 { return j.stats.CheckpointBlocks })
}

// PendingRecords returns the number of committed-but-unchekpointed records,
// a test hook.
func (j *Journal) PendingRecords() int { return len(j.committed) }

// Commit durably appends a transaction (its records plus a commit block)
// to the journal region and returns the simulated cost. If the region
// cannot hold the transaction, a checkpoint is forced first — exactly the
// jbd behaviour whose frequency the region size controls. The journal
// keeps each record's Data buffer but not the records slice, which the
// caller may reuse.
func (j *Journal) Commit(records []Record) (sim.Ns, error) {
	if len(records) == 0 {
		return 0, nil
	}
	need := int64(len(records)) + 1
	if j.revokesNew > 0 {
		need++ // the revoke block carrying pending revocations
		j.revokesNew = 0
	}
	if need > j.size {
		return 0, fmt.Errorf("journal: transaction of %d blocks exceeds region of %d", need, j.size)
	}
	var cost sim.Ns
	if j.live+need > j.size {
		cost += j.Checkpoint()
	}
	// Crash points: the journal's commit block doubles as the
	// transaction's checksum (jbd2's commit record). Power failing
	// anywhere in the record blocks — torn, lost, or misdirected — leaves
	// the commit block unwritten or unverifiable, so the transaction
	// simply never committed. Only a fully persisted burst at the
	// commit-block point makes it durable before the lights go out.
	if _, ok := j.crash.Hit(crashsim.PtJournalAppendRecs, need); ok {
		j.crash.Kill()
	}
	if dmg, ok := j.crash.Hit(crashsim.PtJournalAppendCommit, need); ok {
		if dmg.AllPersisted() {
			j.retain(records)
		}
		j.crash.Kill()
	}
	// Sequential append, wrapping at the region end.
	remaining := need
	at := j.head
	for remaining > 0 {
		run := remaining
		if at+run > j.size {
			run = j.size - at
		}
		cost += j.d.Access(j.start+at, run, true)
		at = (at + run) % j.size
		remaining -= run
	}
	j.head = at
	j.live += need
	j.retain(records)
	j.stats.Commits++
	j.stats.Records += int64(len(records))
	j.stats.JournalBlocks += need
	if j.commitHist != nil {
		j.commitHist.Observe(cost)
	}
	return cost, nil
}

// Checkpoint writes every committed record to its home location through
// the checkpoint function and resets the region, dropping the revocation
// table (checkpointed state needs no replay). It returns the simulated
// cost.
func (j *Journal) Checkpoint() sim.Ns {
	if len(j.committed) == 0 {
		j.live = 0
		j.revoked = make(map[int64]int64)
		j.revokesNew = 0
		return 0
	}
	batch := j.dedupe()
	var cost sim.Ns
	if len(batch) > 0 {
		cost = j.checkpoint(batch)
	}
	// Crash point: every home block is written back but the journal
	// region has not been reset — the next mount replays the whole batch
	// again. Replay idempotence (full-block records, last-write-wins)
	// makes the double apply harmless; the sweep proves it.
	if _, ok := j.crash.Hit(crashsim.PtJournalCheckpointReset, 0); ok {
		j.crash.Kill()
	}
	j.stats.Checkpoints++
	j.stats.CheckpointBlocks += int64(len(batch))
	j.committed = nil
	j.revoked = make(map[int64]int64)
	j.revokesNew = 0
	j.live = 0
	return cost
}

// Replay returns the committed-but-unchekpointed records, deduplicated,
// revocations applied, sorted — what crash recovery would re-apply from
// the journal region.
func (j *Journal) Replay() []Record {
	return j.dedupe()
}

// dedupe keeps the last effective write per block — dropping writes
// revoked after they were committed — and sorts by home block.
func (j *Journal) dedupe() []Record {
	last := make(map[int64]seqRecord, len(j.committed))
	for _, r := range j.committed {
		last[r.Block] = r
	}
	out := make([]Record, 0, len(last))
	for b, r := range last {
		if rev, ok := j.revoked[b]; ok && r.seq < rev {
			continue
		}
		out = append(out, Record{Block: b, Data: r.Data})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Block < out[k].Block })
	return out
}

// retain appends a transaction's records to the committed list, stamping
// each with its sequence number.
func (j *Journal) retain(records []Record) {
	for _, r := range records {
		j.seq++
		j.committed = append(j.committed, seqRecord{Record: r, seq: j.seq})
	}
}
