// Package crashsim is the deterministic crash-point sweep engine: it arms
// one named crash point in a simulated mount, runs a workload until the
// point fires, kills the whole cluster there with a chosen power-fail tear
// mode (see disk.TearMode), and drives recovery plus invariant
// verification. Sweeping every registered point with every applicable mode
// converts crash-safety from a per-feature claim into a machine-checked
// property.
//
// The mechanism: write-side hot paths (journal append, metadata
// checkpoint, IO-server flush, defrag migration, replica repair, cache
// barriers) call Injector.Hit at named points. An unarmed or nil injector
// makes every Hit free and false — production paths keep their exact
// behaviour, which the no-crash telemetry-identity guard asserts
// byte-for-byte. When the armed point reaches its configured occurrence,
// Hit draws a deterministic damage plan for the in-flight burst; the
// caller applies the plan to its durable state and calls Kill, which
// panics with a *Crash. The sweep driver recovers the panic, and the mount
// is left holding exactly the state a power failure would leave.
package crashsim

import (
	"sort"

	"redbud/internal/disk"
	"redbud/internal/sim"
)

// Crash point names. The constants are the single source of truth: hot
// paths pass them to Injector.Hit and the registry lists them for the
// sweep. A misspelled literal would register a point that never fires,
// which the sweep reports as a failure — the registry stays honest.
const (
	// MDS metadata path.
	PtMdfsCommitBegin        = "mdfs.commit.begin"        // txn assembled, journal not yet written
	PtJournalAppendRecs      = "journal.append.records"   // power fails tearing the record blocks
	PtJournalAppendCommit    = "journal.append.commit"    // power fails on the commit block
	PtMdfsCheckpointHome     = "mdfs.checkpoint.home"     // power fails mid home write-back
	PtJournalCheckpointReset = "journal.checkpoint.reset" // home written, journal not yet reset
	PtMdfsSyncGap            = "mdfs.sync.gap"            // sync committed the journal, checkpoint not yet run

	// OST data path.
	PtOstCreateObject    = "ost.create.object"    // object creation torn across servers
	PtOstWriteQueue      = "ost.write.queue"      // write accepted, still in the volatile queue
	PtOstFsyncBarrier    = "ost.fsync.barrier"    // fsync requested, flush not yet on media
	PtOstFlushMedia      = "ost.flush.media"      // power fails mid media burst
	PtOstTruncatePartial = "ost.truncate.partial" // truncate frees torn mid-extent

	// Defrag migration (ost.CopyRange / FreeMigrated).
	PtOstMigrateClaim  = "ost.migrate.claim"  // destination claimed, nothing copied
	PtOstMigrateCopy   = "ost.migrate.copy"   // copy in flight, map still points at old home
	PtOstMigrateCommit = "ost.migrate.commit" // map repointed, old extents not yet freed
	PtOstMigrateFree   = "ost.migrate.free"   // old-extent free torn mid-list

	// Replica repair (pfs.RepairStep).
	PtRepairDstReset     = "repair.dst.reset"     // stale destination truncated, copy not started
	PtRepairCopyMedia    = "repair.copy.media"    // repair slice in the destination's queue
	PtRepairCommitLayout = "repair.commit.layout" // copy complete, layout commit not yet sent

	// Client cache flush barriers (pfs).
	PtCacheWriteback    = "cache.writeback.rpc" // dirty run leaving the cache for the servers
	PtCacheBarrierFlush = "cache.barrier.flush" // barrier entered, dirty blocks still cached
	PtCacheBarrierAck   = "cache.barrier.ack"   // barrier pushed to server queues, not yet on media
	PtCacheSyncFlush    = "cache.sync.flush"    // mount-wide sync barrier entered
)

// Point is one registered crash point: where the sweep kills the mount,
// which tear modes are meaningful there, and at which hit occurrence the
// kill fires (so frequent points crash mid-workload, not during setup).
type Point struct {
	// Name is the Injector.Hit identifier (one of the Pt constants).
	Name string
	// Layer labels the report and telemetry (journal, mdfs, ost, defrag,
	// repair, cache).
	Layer string
	// Modes lists the tear modes swept at this point. Points where no
	// media burst is in flight (pure ordering windows) sweep TearLost
	// only — the mode cannot change the outcome there.
	Modes []disk.TearMode
	// Occurrence is the 1-based Hit count at which the kill fires.
	Occurrence int
}

// mediaModes are swept where a multi-block media burst is in flight.
var mediaModes = []disk.TearMode{disk.TearTorn, disk.TearLost, disk.TearMisdirected}

// orderingOnly marks points that are pure ordering windows.
var orderingOnly = []disk.TearMode{disk.TearLost}

// Registry returns the canonical crash-point list the full sweep runs.
// Occurrences are tuned to the crashsweep workload: frequent points fire
// a few hits in (past mount setup), rare points fire on first reach.
func Registry() []Point {
	return []Point{
		{Name: PtMdfsCommitBegin, Layer: "mdfs", Modes: orderingOnly, Occurrence: 3},
		{Name: PtJournalAppendRecs, Layer: "journal", Modes: []disk.TearMode{disk.TearTorn, disk.TearLost}, Occurrence: 3},
		{Name: PtJournalAppendCommit, Layer: "journal", Modes: []disk.TearMode{disk.TearNone, disk.TearTorn, disk.TearLost, disk.TearMisdirected}, Occurrence: 3},
		{Name: PtMdfsCheckpointHome, Layer: "journal", Modes: mediaModes, Occurrence: 1},
		{Name: PtJournalCheckpointReset, Layer: "journal", Modes: orderingOnly, Occurrence: 1},
		{Name: PtMdfsSyncGap, Layer: "mdfs", Modes: orderingOnly, Occurrence: 1},

		{Name: PtOstCreateObject, Layer: "ost", Modes: orderingOnly, Occurrence: 2},
		{Name: PtOstWriteQueue, Layer: "ost", Modes: orderingOnly, Occurrence: 4},
		{Name: PtOstFsyncBarrier, Layer: "ost", Modes: orderingOnly, Occurrence: 2},
		{Name: PtOstFlushMedia, Layer: "ost", Modes: mediaModes, Occurrence: 3},
		{Name: PtOstTruncatePartial, Layer: "ost", Modes: orderingOnly, Occurrence: 1},

		{Name: PtOstMigrateClaim, Layer: "defrag", Modes: orderingOnly, Occurrence: 1},
		{Name: PtOstMigrateCopy, Layer: "defrag", Modes: orderingOnly, Occurrence: 1},
		{Name: PtOstMigrateCommit, Layer: "defrag", Modes: orderingOnly, Occurrence: 1},
		{Name: PtOstMigrateFree, Layer: "defrag", Modes: []disk.TearMode{disk.TearTorn, disk.TearLost}, Occurrence: 1},

		{Name: PtRepairDstReset, Layer: "repair", Modes: orderingOnly, Occurrence: 1},
		{Name: PtRepairCopyMedia, Layer: "repair", Modes: orderingOnly, Occurrence: 1},
		{Name: PtRepairCommitLayout, Layer: "repair", Modes: orderingOnly, Occurrence: 1},

		{Name: PtCacheWriteback, Layer: "cache", Modes: orderingOnly, Occurrence: 2},
		{Name: PtCacheBarrierFlush, Layer: "cache", Modes: orderingOnly, Occurrence: 2},
		{Name: PtCacheBarrierAck, Layer: "cache", Modes: orderingOnly, Occurrence: 2},
		{Name: PtCacheSyncFlush, Layer: "cache", Modes: orderingOnly, Occurrence: 1},
	}
}

// Crash is the panic value an armed injector kills the mount with.
type Crash struct {
	// Point is the crash point that fired.
	Point string
	// Damage is the media damage plan drawn at the point.
	Damage disk.Damage
}

// Injector arms at most one (point, occurrence, mode) per run. The zero
// of *Injector — nil — is a valid never-firing injector: every hot path
// threads it unconditionally and pays one nil check when no sweep is
// active.
type Injector struct {
	point      string
	occurrence int
	mode       disk.TearMode
	rng        *sim.Rand

	hits  map[string]int
	fired *Crash
}

// Arm returns an injector that kills the mount the occurrence-th time the
// named point is hit, with a damage plan drawn in the given mode from a
// deterministic seed. An empty point name returns a pure observer: it
// never fires but still counts hits (the sweep's baseline run uses it to
// prove every registered point is reachable).
func Arm(point string, occurrence int, mode disk.TearMode, seed uint64) *Injector {
	if occurrence < 1 {
		occurrence = 1
	}
	return &Injector{
		point:      point,
		occurrence: occurrence,
		mode:       mode,
		rng:        sim.NewRand(seed),
		hits:       make(map[string]int),
	}
}

// Observe returns a never-firing hit counter.
func Observe() *Injector { return Arm("", 1, disk.TearNone, 1) }

// Hit records one pass through the named crash point with inflight blocks
// in the current media burst. It returns a damage plan and true exactly
// when this hit is the armed kill; the caller then applies the plan to its
// durable state and calls Kill. Nil-safe: a nil injector returns false.
func (in *Injector) Hit(point string, inflight int64) (disk.Damage, bool) {
	if in == nil {
		return disk.Damage{}, false
	}
	in.hits[point]++
	if in.fired != nil || point != in.point || in.hits[point] != in.occurrence {
		return disk.Damage{}, false
	}
	d := disk.PlanDamage(in.mode, in.rng, inflight)
	in.fired = &Crash{Point: point, Damage: d}
	return d, true
}

// Kill panics with the Crash recorded by the firing Hit. Calling it
// without a fired hit is a programming error.
func (in *Injector) Kill() {
	if in == nil || in.fired == nil {
		panic("crashsim: Kill without a fired Hit")
	}
	panic(in.fired)
}

// Fired returns the recorded crash, if the injector killed the mount.
func (in *Injector) Fired() *Crash {
	if in == nil {
		return nil
	}
	return in.fired
}

// Hits returns the hit count of one point.
func (in *Injector) Hits(point string) int {
	if in == nil {
		return 0
	}
	return in.hits[point]
}

// HitPoints returns every point name seen, sorted — deterministic input
// for reports.
func (in *Injector) HitPoints() []string {
	if in == nil {
		return nil
	}
	out := make([]string, 0, len(in.hits))
	for p := range in.hits {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Capture invokes fn and converts an injector kill into a *Crash result;
// every other panic propagates. It returns (nil, err) when fn finished
// without crashing.
func Capture(fn func() error) (crash *Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*Crash)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	return nil, fn()
}
