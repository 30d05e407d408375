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
//
// The journal keeps one record per block: a later commit of a block
// replaces its pending record in place, so a checkpoint or a replay reads
// each block's last write without deduplicating, and a superseded Data
// buffer is the caller's again as soon as the commit that supersedes it
// returns.
package journal

import (
	"cmp"
	"fmt"
	"slices"

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
	// what checkpoint and replay hand back — until a later commit of the
	// block or a checkpoint lets go of it, so the caller must not modify
	// it meanwhile.
	Data []byte
}

// CheckpointFunc writes a batch of records to their home locations and
// returns the simulated cost. The journal calls it when the region fills or
// when the owner forces a checkpoint. Records arrive one per block (the
// last write) and sorted by home block.
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
	committed  []entry
	at         map[int64]int32 // block → its entry in committed
	seq        int64
	staged     []int64 // revocations the next Commit applies
	revokesNew int     // revokes applied since the last record-carrying commit (revoke-block accounting)
	checkpoint CheckpointFunc
	stats      Stats

	// batch is collect's scratch, the sorted batch it returns. pinned is
	// a checkpoint's scratch: the live records it kept back for blocks
	// whose revocation is staged.
	batch  []Record
	pinned []entry

	// commitHist, when attached, observes every Commit's device cost.
	commitHist *telemetry.Histogram

	// crash, when armed, kills the mount at the journal's named crash
	// points (nil-safe: nil is a no-op).
	crash *crashsim.Injector
}

// entry is one block's committed-but-uncheckpointed state: its last
// record (Data nil if it has none) and its last revocation, each stamped
// with the sequence number that orders them.
type entry struct {
	Record
	seq int64 // the record's
	rev int64 // the revocation's, 0 if none
}

// live reports whether the entry's record outlives its revocation, so a
// checkpoint writes it home and a replay re-applies it.
func (e *entry) live() bool { return e.Data != nil && e.seq > e.rev }

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
	return &Journal{
		d: d, start: start, size: size, checkpoint: checkpoint,
		at: make(map[int64]int32),
	}
}

// Revoke stages the revocation of a block's journaled contents; the next
// Commit applies it, as part of its transaction. From then on the freed
// metadata block is neither checkpointed to its home location nor
// replayed after a crash — otherwise its stale bytes resurrect when the
// block is reallocated (ext3's revoke records exist for exactly this).
// Until then the block's last committed write stays live: a free is
// durable with its commit, not before. Writes in the same or a later
// commit take effect normally. The revoke itself occupies journal space,
// charged as one revoke block on the next commit that carries records.
func (j *Journal) Revoke(block int64) { j.staged = append(j.staged, block) }

// Revoked reports whether the block's last committed state is a
// revocation, so that a crash now leaves it void.
func (j *Journal) Revoked(block int64) bool {
	i, ok := j.at[block]
	return ok && !j.committed[i].live()
}

// applyRevokes makes staged revocations durable, sequenced after every
// record committed so far.
func (j *Journal) applyRevokes(blocks []int64) {
	for _, b := range blocks {
		j.seq++
		j.entry(b).rev = j.seq
	}
}

// entry returns the block's entry, adding an empty one if it has none.
func (j *Journal) entry(block int64) *entry {
	i, ok := j.at[block]
	if !ok {
		i = int32(len(j.committed))
		j.at[block] = i
		j.committed = append(j.committed, entry{Record: Record{Block: block}})
	}
	return &j.committed[i]
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

// EachRecord calls f with every committed-but-uncheckpointed record, one
// per block, revoked ones included — every Data buffer the journal still
// holds. A test hook for buffer-ownership checks.
func (j *Journal) EachRecord(f func(Record)) {
	for _, e := range j.committed {
		if e.Data != nil {
			f(e.Record)
		}
	}
}

// Commit durably appends a transaction (its records, the staged
// revocations, and a commit block) to the journal region and returns the
// simulated cost. If the region cannot hold the transaction, a checkpoint
// is forced first — exactly the jbd behaviour whose frequency the region
// size controls. The journal keeps each record's Data buffer, in place of
// the one it held for the block, but not the records slice, which the
// caller may reuse. A transaction of revocations
// alone applies them and writes nothing: its revoke block rides the next
// commit that carries records. A failed Commit drops the staged
// revocations with its transaction.
func (j *Journal) Commit(records []Record) (sim.Ns, error) {
	revokes := j.staged
	j.staged = j.staged[:0]
	if len(records) == 0 {
		j.applyRevokes(revokes)
		j.revokesNew += len(revokes)
		return 0, nil
	}
	need := int64(len(records)) + 1
	if j.revokesNew > 0 || len(revokes) > 0 {
		need++ // the revoke block carrying the revocations
		j.revokesNew = 0
	}
	if need > j.size {
		return 0, fmt.Errorf("journal: transaction of %d blocks exceeds region of %d", need, j.size)
	}
	var cost sim.Ns
	if j.live+need > j.size {
		cost += j.checkpointPinning(revokes)
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
			j.applyRevokes(revokes)
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
	j.applyRevokes(revokes)
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
// the checkpoint function and resets the region, dropping the revocations
// (checkpointed state needs no replay). It returns the simulated
// cost. Once it returns, the journal will neither checkpoint nor replay a
// record it held, so their Data buffers are the caller's again; the batch
// it passed to the checkpoint function is scratch that the next checkpoint
// or Replay reuses.
func (j *Journal) Checkpoint() sim.Ns { return j.checkpointPinning(nil) }

// checkpointPinning is Checkpoint forced inside a Commit whose staged
// revocations name pin. It honours them — a pinned block is not written
// home — but keeps each one's last live record replayable until the
// commit block is written, as jbd2 keeps an older transaction pinned
// until the one revoking its blocks commits. The kept records hold no
// region space.
func (j *Journal) checkpointPinning(pin []int64) sim.Ns {
	if !slices.ContainsFunc(j.committed, func(e entry) bool { return e.Data != nil }) {
		j.reset() // revocations alone: no record to write home
		return 0
	}
	batch := j.collect(pin)
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
	j.reset()
	for _, e := range j.pinned {
		*j.entry(e.Block) = entry{Record: e.Record, seq: e.seq}
	}
	return cost
}

// reset empties the region and the revocations, keeping their storage for
// the next round. The entries are cleared, not just truncated, so the
// journal lets go of their Data buffers.
func (j *Journal) reset() {
	clear(j.committed)
	j.committed = j.committed[:0]
	clear(j.at)
	j.revokesNew = 0
	j.live = 0
}

// Replay returns the committed-but-uncheckpointed records, one per block,
// revocations applied, sorted — what crash recovery would re-apply from
// the journal region. The slice is the journal's scratch: the caller
// consumes it before the next Checkpoint or Replay, which reuse it.
func (j *Journal) Replay() []Record {
	return j.collect(nil)
}

// collect gathers the live records — dropping those revoked after they
// were committed, and moving those of the pin blocks to j.pinned — and
// sorts them by home block. It returns j.batch, refilled.
func (j *Journal) collect(pin []int64) []Record {
	clear(j.pinned)
	j.pinned = j.pinned[:0]
	clear(j.batch)
	out := j.batch[:0]
	for _, e := range j.committed {
		switch {
		case !e.live():
		case slices.Contains(pin, e.Block):
			j.pinned = append(j.pinned, e)
		default:
			out = append(out, e.Record)
		}
	}
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.Block, b.Block) })
	j.batch = out
	return out
}

// retain makes a transaction's records their blocks' pending ones,
// stamping each with its sequence number.
func (j *Journal) retain(records []Record) {
	for _, r := range records {
		j.seq++
		e := j.entry(r.Block)
		e.Data, e.seq = r.Data, j.seq
	}
}
