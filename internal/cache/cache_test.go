package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/telemetry"
)

// call records one backing-store invocation.
type call struct {
	write      bool
	f          FileID
	stream     core.StreamID // write-backs only
	blk, count int64
}

func (c call) String() string {
	if c.write {
		return fmt.Sprintf("writeback(f=%d,s=%v,[%d,+%d))", c.f, c.stream, c.blk, c.count)
	}
	return fmt.Sprintf("fetch(f=%d,[%d,+%d))", c.f, c.blk, c.count)
}

// fakeStore records every backing-store call.
type fakeStore struct {
	calls []call
	fail  error
}

func (s *fakeStore) WriteBack(f FileID, stream core.StreamID, blk, count int64) error {
	s.calls = append(s.calls, call{write: true, f: f, stream: stream, blk: blk, count: count})
	return s.fail
}

func (s *fakeStore) Fetch(f FileID, blk, count int64) error {
	s.calls = append(s.calls, call{write: false, f: f, blk: blk, count: count})
	return s.fail
}

func (s *fakeStore) fetches() []call {
	var out []call
	for _, c := range s.calls {
		if !c.write {
			out = append(out, c)
		}
	}
	return out
}

func (s *fakeStore) writebacks() []call {
	var out []call
	for _, c := range s.calls {
		if c.write {
			out = append(out, c)
		}
	}
	return out
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleBlockWritesFlushAsOneRun(t *testing.T) {
	st := &fakeStore{}
	c := New(DefaultConfig(), st)
	for i := int64(0); i < 16; i++ {
		mustNil(t, c.Write(1, core.StreamID{}, i, 1))
	}
	if len(st.calls) != 0 {
		t.Fatalf("writes must be absorbed without RPCs, got %v", st.calls)
	}
	mustNil(t, c.FlushFile(1))
	wb := st.writebacks()
	if len(wb) != 1 || wb[0] != (call{write: true, f: 1, blk: 0, count: 16}) {
		t.Fatalf("16 adjacent dirty blocks must flush as one run, got %v", wb)
	}
	s := c.Stats()
	if s.Writebacks != 1 || s.WritebackBlocks != 16 {
		t.Fatalf("stats = %+v, want 1 writeback of 16 blocks", s)
	}
	if s.DirtyBlocks != 0 || s.CachedBlocks != 16 {
		t.Fatalf("after flush: dirty=%d cached=%d, want 0/16 (blocks stay clean-cached)", s.DirtyBlocks, s.CachedBlocks)
	}
}

func TestSparseDirtyRunsFlushSeparately(t *testing.T) {
	st := &fakeStore{}
	c := New(DefaultConfig(), st)
	mustNil(t, c.Write(7, core.StreamID{}, 0, 2))
	mustNil(t, c.Write(7, core.StreamID{}, 8, 2))
	mustNil(t, c.FlushFile(7))
	wb := st.writebacks()
	want := []call{
		{write: true, f: 7, blk: 0, count: 2},
		{write: true, f: 7, blk: 8, count: 2},
	}
	if len(wb) != 2 || wb[0] != want[0] || wb[1] != want[1] {
		t.Fatalf("sparse runs must flush separately in ascending order, got %v", wb)
	}
}

func TestOverlappingWritesStayOneRun(t *testing.T) {
	st := &fakeStore{}
	c := New(DefaultConfig(), st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 4))
	mustNil(t, c.Write(1, core.StreamID{}, 2, 4))
	if got := c.Stats().DirtyBlocks; got != 6 {
		t.Fatalf("dirty = %d, want 6 (re-dirtied blocks not double-counted)", got)
	}
	mustNil(t, c.FlushFile(1))
	if wb := st.writebacks(); len(wb) != 1 || wb[0].count != 6 {
		t.Fatalf("overlapping writes must flush as one run, got %v", wb)
	}
}

func TestReadYourWritesCostsNoRPC(t *testing.T) {
	st := &fakeStore{}
	c := New(DefaultConfig(), st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 8))
	mustNil(t, c.Read(1, 0, 8))
	mustNil(t, c.Read(1, 3, 2))
	if len(st.calls) != 0 {
		t.Fatalf("reads of dirty data must be served from cache, got %v", st.calls)
	}
	s := c.Stats()
	if s.HitBlocks != 10 || s.MissBlocks != 0 {
		t.Fatalf("hits=%d misses=%d, want 10/0", s.HitBlocks, s.MissBlocks)
	}
}

func TestDirtyHighWaterWritesBackOldestRun(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{DirtyHighWater: 4, CapacityBlocks: 100, ReadAheadBlocks: -1}, st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 4)) // at the mark: no write-back
	if len(st.calls) != 0 {
		t.Fatalf("at high water nothing flushes, got %v", st.calls)
	}
	mustNil(t, c.Write(1, core.StreamID{}, 10, 1)) // over: oldest run drains
	wb := st.writebacks()
	if len(wb) != 1 || wb[0] != (call{write: true, f: 1, blk: 0, count: 4}) {
		t.Fatalf("over high water the oldest run must drain, got %v", wb)
	}
	if got := c.Stats().DirtyBlocks; got != 1 {
		t.Fatalf("dirty = %d, want 1 (only the new block)", got)
	}
}

func TestCapacityEvictsLRUAndRefetches(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{CapacityBlocks: 4, DirtyHighWater: 4, ReadAheadBlocks: -1}, st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 4))
	mustNil(t, c.Write(1, core.StreamID{}, 4, 1))
	// Dirty count 5 exceeded the (capacity-clamped) high water: the whole
	// adjacent run [0,5) drained as one write-back, then block 0 — the
	// least recently used — was evicted to fit capacity.
	if wb := st.writebacks(); len(wb) != 1 || wb[0].blk != 0 || wb[0].count != 5 {
		t.Fatalf("writebacks = %v, want one [0,+5)", wb)
	}
	s := c.Stats()
	if s.EvictedBlocks != 1 || s.CachedBlocks != 4 {
		t.Fatalf("evicted=%d cached=%d, want 1/4", s.EvictedBlocks, s.CachedBlocks)
	}
	// The evicted block is gone: re-reading it refetches from the store.
	mustNil(t, c.Read(1, 0, 1))
	if f := st.fetches(); len(f) != 1 || f[0] != (call{f: 1, blk: 0, count: 1}) {
		t.Fatalf("evicted block must refetch, got %v", f)
	}
	// The surviving blocks still hit.
	mustNil(t, c.Read(1, 2, 3))
	if f := st.fetches(); len(f) != 1 {
		t.Fatalf("resident blocks must not refetch, got %v", f)
	}
}

func TestDirtyVictimWritesBackBeforeEviction(t *testing.T) {
	st := &fakeStore{}
	// High water = capacity: eviction, not the high-water mark, is what
	// forces the dirty victim out.
	c := New(Config{CapacityBlocks: 4, DirtyHighWater: 100, ReadAheadBlocks: -1}, st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 1))
	mustNil(t, c.Write(1, core.StreamID{}, 10, 4))
	// Capacity 4 forces block 0 (LRU tail, dirty) out: its run must be
	// written back first — dirty data is never silently dropped.
	wb := st.writebacks()
	if len(wb) != 1 || wb[0] != (call{write: true, f: 1, blk: 0, count: 1}) {
		t.Fatalf("dirty victim must write back before eviction, got %v", wb)
	}
	if got := c.Stats().DirtyBlocks; got != 4 {
		t.Fatalf("dirty = %d, want 4", got)
	}
}

func TestReadaheadArmsAfterSequentialRun(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{CapacityBlocks: 16, DirtyHighWater: 16, ReadAheadBlocks: 8, SequentialThreshold: 4}, st)
	// Make [0,64) known to the cache, then push everything but the tail
	// out (capacity 16 keeps [48,64)).
	mustNil(t, c.Write(1, core.StreamID{}, 0, 64))
	st.calls = nil

	// A cold sequential reader: the first read is below the threshold and
	// fetches exactly what was asked.
	mustNil(t, c.Read(1, 0, 2))
	if f := st.fetches(); len(f) != 1 || f[0].count != 2 {
		t.Fatalf("below threshold no readahead, got %v", f)
	}
	// The second read proves the stream sequential (run=4 >= threshold):
	// its miss is extended through the window.
	mustNil(t, c.Read(1, 2, 2))
	f := st.fetches()
	if len(f) != 2 || f[1] != (call{f: 1, blk: 2, count: 6}) {
		t.Fatalf("armed reader must extend the miss, got %v", f)
	}
	if got := c.Stats().ReadaheadIssued; got != 4 {
		t.Fatalf("ReadaheadIssued = %d, want 4", got)
	}
	// The prefetched blocks serve the next read as pure hits and count
	// used; a fully-hitting read on a still-sequential stream keeps
	// prefetching ahead with the grown (run=8) window.
	mustNil(t, c.Read(1, 4, 4))
	f = st.fetches()
	if len(f) != 3 || f[2] != (call{f: 1, blk: 8, count: 8}) {
		t.Fatalf("fetches = %v, want third = prefetch [8,+8)", f)
	}
	s := c.Stats()
	if s.ReadaheadUsed != 4 {
		t.Fatalf("ReadaheadUsed = %d, want 4", s.ReadaheadUsed)
	}
	if s.ReadaheadIssued != 12 {
		t.Fatalf("ReadaheadIssued = %d, want 12 (4 extended + 8 ahead)", s.ReadaheadIssued)
	}
}

func TestReadaheadNeverReadsAHole(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{CapacityBlocks: 16384, ReadAheadBlocks: 64, SequentialThreshold: 1}, st)
	// A sparse file: [0,2) and [8,10) exist, [2,8) is a hole.
	mustNil(t, c.Write(1, core.StreamID{}, 0, 2))
	mustNil(t, c.Write(1, core.StreamID{}, 8, 2))
	mustNil(t, c.FlushFile(1))
	st.calls = nil
	// A fully-hitting sequential read wants to prefetch ahead, but block
	// 2 is a hole: the window clamps to known-written ranges and nothing
	// is fetched.
	mustNil(t, c.Read(1, 0, 2))
	if len(st.calls) != 0 {
		t.Fatalf("readahead crossed into a hole: %v", st.calls)
	}
	if got := c.Stats().ReadaheadIssued; got != 0 {
		t.Fatalf("ReadaheadIssued = %d, want 0", got)
	}
}

func TestReadaheadOverwrittenBeforeUseCountsWasted(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{CapacityBlocks: 8, DirtyHighWater: 8, ReadAheadBlocks: 4, SequentialThreshold: 1}, st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 16)) // [8,16) stays cached
	mustNil(t, c.FlushFile(1))
	// The adaptive window matches the observed run (4): the miss [0,4)
	// extends into a fetch of [0,8).
	mustNil(t, c.Read(1, 0, 4))
	if got := c.Stats().ReadaheadIssued; got != 4 {
		t.Fatalf("ReadaheadIssued = %d, want 4", got)
	}
	// Overwriting prefetched blocks before any read referenced them means
	// the prefetch was wasted.
	mustNil(t, c.Write(1, core.StreamID{}, 4, 4))
	if got := c.Stats().ReadaheadWasted; got != 4 {
		t.Fatalf("ReadaheadWasted = %d, want 4", got)
	}
}

func TestFlushOrderIsDeterministic(t *testing.T) {
	want := []call{
		{write: true, f: 1, blk: 0, count: 2},
		{write: true, f: 1, blk: 6, count: 1},
		{write: true, f: 2, blk: 3, count: 2},
		{write: true, f: 9, blk: 100, count: 4},
	}
	for round := 0; round < 5; round++ {
		st := &fakeStore{}
		c := New(DefaultConfig(), st)
		// Dirty three files in an order unrelated to the flush order.
		mustNil(t, c.Write(9, core.StreamID{}, 100, 4))
		mustNil(t, c.Write(1, core.StreamID{}, 6, 1))
		mustNil(t, c.Write(2, core.StreamID{}, 3, 2))
		mustNil(t, c.Write(1, core.StreamID{}, 0, 2))
		mustNil(t, c.Flush())
		wb := st.writebacks()
		if len(wb) != len(want) {
			t.Fatalf("round %d: writebacks %v, want %v", round, wb, want)
		}
		for i := range want {
			if wb[i] != want[i] {
				t.Fatalf("round %d: writeback[%d] = %v, want %v (flush order must be deterministic)", round, i, wb[i], want[i])
			}
		}
	}
}

func TestTruncateDropsTailWithoutWriteback(t *testing.T) {
	st := &fakeStore{}
	c := New(Config{CapacityBlocks: 16384, ReadAheadBlocks: 64, SequentialThreshold: 1}, st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 8))
	c.Truncate(1, 4)
	mustNil(t, c.FlushFile(1))
	wb := st.writebacks()
	if len(wb) != 1 || wb[0] != (call{write: true, f: 1, blk: 0, count: 4}) {
		t.Fatalf("truncated tail must not write back, got %v", wb)
	}
	// The tail is no longer known-written: a fully-hitting read of the
	// head must not prefetch past the new EOF.
	st.calls = nil
	mustNil(t, c.Read(1, 0, 4))
	if len(st.calls) != 0 {
		t.Fatalf("prefetch crossed truncated EOF: %v", st.calls)
	}
}

func TestDropDiscardsEverything(t *testing.T) {
	st := &fakeStore{}
	c := New(DefaultConfig(), st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 8))
	mustNil(t, c.Write(2, core.StreamID{}, 0, 4))
	c.Drop(1)
	mustNil(t, c.Flush())
	wb := st.writebacks()
	if len(wb) != 1 || wb[0].f != 2 {
		t.Fatalf("dropped file must not write back, got %v", wb)
	}
	s := c.Stats()
	if s.CachedBlocks != 4 || s.DirtyBlocks != 0 {
		t.Fatalf("cached=%d dirty=%d, want 4/0", s.CachedBlocks, s.DirtyBlocks)
	}
}

func TestStoreErrorsPropagate(t *testing.T) {
	st := &fakeStore{fail: fmt.Errorf("boom")}
	c := New(DefaultConfig(), st)
	mustNil(t, c.Write(1, core.StreamID{}, 0, 4)) // absorbed, no RPC yet
	if err := c.FlushFile(1); err == nil {
		t.Fatal("write-back failure must surface from FlushFile")
	}
	if err := c.Read(1, 100, 1); err == nil {
		t.Fatal("fetch failure must surface from Read")
	}
	if err := c.Write(1, core.StreamID{}, -1, 1); err == nil {
		t.Fatal("negative offset must be rejected")
	}
	if err := c.Read(1, 0, 0); err == nil {
		t.Fatal("empty read must be rejected")
	}
}

// TestMatchesReferenceCache drives the cache and refCache — the same
// policy kept in per-block heap objects and maps — through seeded op
// sequences on a mount small enough that eviction, dirty-victim write-back,
// the high-water mark and readahead fire constantly, with a store failure
// injected now and then. After every op both must have made the same
// backing-store calls (arguments and stream) and report the same Stats; at
// the end their eviction events must match.
func TestMatchesReferenceCache(t *testing.T) {
	cfg := Config{CapacityBlocks: 40, DirtyHighWater: 12, ReadAheadBlocks: 8, SequentialThreshold: 3}
	const files, span, ops = 4, 96, 6000
	for seed := uint64(1); seed <= 3; seed++ {
		got, want := &fakeStore{}, &fakeStore{}
		c, ref := New(cfg, got), newRefCache(cfg, want)
		c.events, ref.events = telemetry.NewEventLog(1<<20), telemetry.NewEventLog(1<<20)
		rng := rand.New(rand.NewPCG(seed, 7))
		lastEnd := make([]int64, files)
		for op := 0; op < ops; op++ {
			f := FileID(rng.IntN(files))
			blk, count := int64(rng.IntN(span)), int64(1+rng.IntN(12))
			got.fail, want.fail = nil, nil
			if rng.IntN(50) == 0 {
				got.fail, want.fail = fmt.Errorf("boom"), fmt.Errorf("boom")
			}
			var desc string
			var errGot, errWant error
			switch k := rng.IntN(100); {
			case k < 40:
				s := core.StreamID{Client: uint32(rng.IntN(3)), PID: uint32(f)}
				desc = fmt.Sprintf("Write(%d, %v, %d, %d)", f, s, blk, count)
				errGot, errWant = c.Write(f, s, blk, count), ref.Write(f, s, blk, count)
			case k < 75:
				if rng.IntN(3) > 0 {
					blk = lastEnd[f] // a sequential reader
				}
				lastEnd[f] = blk + count
				desc = fmt.Sprintf("Read(%d, %d, %d)", f, blk, count)
				errGot, errWant = c.Read(f, blk, count), ref.Read(f, blk, count)
			case k < 86:
				desc = fmt.Sprintf("FlushFile(%d)", f)
				errGot, errWant = c.FlushFile(f), ref.FlushFile(f)
			case k < 89:
				desc = "Flush()"
				errGot, errWant = c.Flush(), ref.Flush()
			case k < 95:
				desc = fmt.Sprintf("Truncate(%d, %d)", f, blk)
				c.Truncate(f, blk)
				ref.Truncate(f, blk)
			case k < 99:
				desc = fmt.Sprintf("Drop(%d)", f)
				c.Drop(f)
				ref.Drop(f)
			default:
				desc = "Reset()"
				c.Reset()
				ref.Reset()
			}
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d op %d %s: error %v, reference %v", seed, op, desc, errGot, errWant)
			}
			if !reflect.DeepEqual(got.calls, want.calls) {
				t.Fatalf("seed %d op %d %s: calls %v, reference %v", seed, op, desc, got.calls, want.calls)
			}
			if c.Stats() != ref.Stats() {
				t.Fatalf("seed %d op %d %s: stats %+v, reference %+v", seed, op, desc, c.Stats(), ref.Stats())
			}
			got.calls, want.calls = got.calls[:0], want.calls[:0]
		}
		if g, w := c.events.Records(), ref.events.Records(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: %d eviction events, reference %d", seed, len(g), len(w))
		}
		st := c.Stats()
		if st.EvictedBlocks == 0 || st.Writebacks == 0 || st.ReadaheadUsed == 0 || st.ReadaheadWasted == 0 {
			t.Fatalf("seed %d: the sequence left a mechanism idle: %+v", seed, st)
		}
	}
}

// TestZeroCapacityIsPassThrough: a cache with no capacity turns every
// Write into one write-back and every Read into one fetch of the caller's
// range, holds nothing between calls, and counts and publishes nothing.
func TestZeroCapacityIsPassThrough(t *testing.T) {
	for _, cfg := range []Config{{}, {CapacityBlocks: -1, DirtyHighWater: 4, ReadAheadBlocks: 8}} {
		st := &fakeStore{}
		c := New(cfg, st)
		if c.Config() != (Config{}) {
			t.Fatalf("pass-through config = %+v, want the zero Config", c.Config())
		}
		reg := telemetry.NewRegistry()
		c.Instrument(reg, telemetry.Labels{"layer": "cache"})
		s := core.StreamID{Client: 1, PID: 1}
		mustNil(t, c.Write(1, s, 0, 8))
		mustNil(t, c.Write(1, s, 8, 8))
		mustNil(t, c.Read(1, 0, 16))
		mustNil(t, c.Read(1, 16, 4))
		mustNil(t, c.FlushFile(1))
		mustNil(t, c.Flush())
		c.Truncate(1, 4)
		c.Drop(1)
		c.Reset()
		want := []call{
			{write: true, f: 1, stream: s, blk: 0, count: 8},
			{write: true, f: 1, stream: s, blk: 8, count: 8},
			{f: 1, blk: 0, count: 16},
			{f: 1, blk: 16, count: 4},
		}
		if !reflect.DeepEqual(st.calls, want) {
			t.Fatalf("store calls = %v, want %v", st.calls, want)
		}
		if c.Stats() != (Stats{}) {
			t.Fatalf("pass-through stats = %+v, want zero", c.Stats())
		}
		if n := len(reg.Snapshot()); n != 0 {
			t.Fatalf("pass-through published %d metrics, want none", n)
		}
		if n := reg.Events().Len(); n != 0 {
			t.Fatalf("pass-through emitted %d events, want none", n)
		}
	}
}

// countStore counts backing-store calls without allocating.
type countStore struct{ writebacks, fetches int }

func (s *countStore) WriteBack(FileID, core.StreamID, int64, int64) error {
	s.writebacks++
	return nil
}

func (s *countStore) Fetch(FileID, int64, int64) error {
	s.fetches++
	return nil
}

// TestSteadyStateAllocatesNothing pins the cost of a warm cache: on a full,
// uninstrumented cache a read miss that evicts and a write that forces a
// dirty run back allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const capacity, blocks = 64, 256
	st := &countStore{}
	c := New(Config{CapacityBlocks: capacity, DirtyHighWater: 16, ReadAheadBlocks: -1}, st)
	// Cycling over more blocks than fit keeps every read a miss and every
	// write a fresh run, spaced so no two runs coalesce; two full cycles of
	// each grow the slab, the indexes and the scratch to their final size.
	var rd, wr int64
	read := func() {
		mustNil(t, c.Read(1, rd%blocks, 1))
		rd++
	}
	write := func() {
		mustNil(t, c.Write(2, core.StreamID{Client: 1}, wr%blocks, 4))
		wr += 8
	}
	for i := 0; i < 2*blocks; i++ {
		read()
		write()
	}
	if c.Stats().CachedBlocks != capacity {
		t.Fatalf("cached = %d, want a full cache of %d", c.Stats().CachedBlocks, capacity)
	}

	wbs := st.writebacks
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Errorf("a write that forces a dirty run back allocates %.0f objects, want 0", n)
	}
	if st.writebacks-wbs < 1000 {
		t.Fatalf("writes forced %d write-backs, want one per write", st.writebacks-wbs)
	}
	ev, fetches := c.Stats().EvictedBlocks, st.fetches
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Errorf("a read miss that evicts allocates %.0f objects, want 0", n)
	}
	if st.fetches-fetches < 1000 || c.Stats().EvictedBlocks-ev < 1000 {
		t.Fatalf("reads made %d fetches and %d evictions, want every read to miss and evict",
			st.fetches-fetches, c.Stats().EvictedBlocks-ev)
	}
}

// --- the reference cache ----------------------------------------------

// refCache is the cache as it was before the node slab: one heap refBlock
// per cached block, pointer-linked LRU and dirty lists, and a Go map per
// file. TestMatchesReferenceCache drives it beside Cache and requires the
// same backing-store calls, counters and eviction events after every op.
type refCache struct {
	cfg   Config
	store BackingStore

	files map[FileID]*refFile
	total int64 // cached blocks
	dirty int64 // dirty blocks

	lruHead, lruTail     *refBlock // recency list
	dirtyHead, dirtyTail *refBlock // dirty FIFO, oldest at head

	st     Stats
	events *telemetry.EventLog
}

// refBlock is one cached block: LRU and dirty-queue linkage plus state.
type refBlock struct {
	f   FileID
	blk int64

	dirty      bool
	stream     core.StreamID // writer, valid while dirty
	prefetched bool          // brought in by readahead, not yet referenced

	// lruPrev/lruNext form the recency list (head = most recent).
	lruPrev, lruNext *refBlock
	// dirtyPrev/dirtyNext form the dirty FIFO (head = oldest).
	dirtyPrev, dirtyNext *refBlock
}

// refFile is the per-file state.
type refFile struct {
	blocks  map[int64]*refBlock
	written alloc.RangeSet
	lastEnd int64
	run     int64
}

func newRefCache(cfg Config, store BackingStore) *refCache {
	return &refCache{cfg: cfg.withDefaults(), store: store, files: make(map[FileID]*refFile)}
}

func (c *refCache) Stats() Stats {
	st := c.st
	st.DirtyBlocks = c.dirty
	st.CachedBlocks = c.total
	return st
}

func (c *refCache) Reset() {
	c.files = make(map[FileID]*refFile)
	c.total = 0
	c.dirty = 0
	c.lruHead, c.lruTail = nil, nil
	c.dirtyHead, c.dirtyTail = nil, nil
}

func (c *refCache) file(f FileID) *refFile {
	fs := c.files[f]
	if fs == nil {
		fs = &refFile{blocks: make(map[int64]*refBlock)}
		c.files[f] = fs
	}
	return fs
}

// --- intrusive list plumbing -------------------------------------------

// lruUnlink removes b from the recency list.
func (c *refCache) lruUnlink(b *refBlock) {
	if b.lruPrev != nil {
		b.lruPrev.lruNext = b.lruNext
	} else if c.lruHead == b {
		c.lruHead = b.lruNext
	}
	if b.lruNext != nil {
		b.lruNext.lruPrev = b.lruPrev
	} else if c.lruTail == b {
		c.lruTail = b.lruPrev
	}
	b.lruPrev, b.lruNext = nil, nil
}

// lruPush inserts b at the most-recent end.
func (c *refCache) lruPush(b *refBlock) {
	b.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = b
	}
	c.lruHead = b
	if c.lruTail == nil {
		c.lruTail = b
	}
}

// touch moves b to the most-recent end.
func (c *refCache) touch(b *refBlock) {
	if c.lruHead == b {
		return
	}
	c.lruUnlink(b)
	c.lruPush(b)
}

// dirtyUnlink removes b from the dirty FIFO.
func (c *refCache) dirtyUnlink(b *refBlock) {
	if b.dirtyPrev != nil {
		b.dirtyPrev.dirtyNext = b.dirtyNext
	} else if c.dirtyHead == b {
		c.dirtyHead = b.dirtyNext
	}
	if b.dirtyNext != nil {
		b.dirtyNext.dirtyPrev = b.dirtyPrev
	} else if c.dirtyTail == b {
		c.dirtyTail = b.dirtyPrev
	}
	b.dirtyPrev, b.dirtyNext = nil, nil
}

// dirtyAppend queues b at the newest end of the dirty FIFO.
func (c *refCache) dirtyAppend(b *refBlock) {
	b.dirtyPrev = c.dirtyTail
	if c.dirtyTail != nil {
		c.dirtyTail.dirtyNext = b
	}
	c.dirtyTail = b
	if c.dirtyHead == nil {
		c.dirtyHead = b
	}
}

// drop removes b from every structure.
func (c *refCache) drop(b *refBlock) {
	if b.prefetched {
		b.prefetched = false
		c.st.ReadaheadWasted++
	}
	if b.dirty {
		b.dirty = false
		c.dirtyUnlink(b)
		c.dirty--
	}
	c.lruUnlink(b)
	if fs := c.files[b.f]; fs != nil {
		delete(fs.blocks, b.blk)
	}
	c.total--
}

// --- write path --------------------------------------------------------

// Write marks [blk, blk+count) of f dirty on behalf of stream, absorbing
// the data without any RPC. It then enforces the dirty high-water mark
// (oldest coalesced runs written back first) and the capacity bound.
func (c *refCache) Write(f FileID, stream core.StreamID, blk, count int64) error {
	if blk < 0 || count <= 0 {
		return fmt.Errorf("cache: invalid write [%d,+%d)", blk, count)
	}
	fs := c.file(f)
	for i := int64(0); i < count; i++ {
		l := blk + i
		b := fs.blocks[l]
		if b == nil {
			b = &refBlock{f: f, blk: l}
			fs.blocks[l] = b
			c.lruPush(b)
			c.total++
		} else {
			c.touch(b)
			if b.prefetched {
				// Overwritten before ever being read: the prefetch
				// was wasted.
				b.prefetched = false
				c.st.ReadaheadWasted++
			}
			if b.dirty {
				// Re-dirtied blocks keep their FIFO position; the run
				// they belong to is still queued.
				b.stream = stream
				continue
			}
		}
		b.dirty = true
		b.stream = stream
		c.dirtyAppend(b)
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
func (c *refCache) enforceHighWater() error {
	for c.dirty > c.cfg.DirtyHighWater && c.dirtyHead != nil {
		if err := c.writeBackRun(c.dirtyHead); err != nil {
			return err
		}
	}
	return nil
}

// enforceCapacity evicts least-recently-used blocks until the cache
// fits, writing back any dirty victim's run first.
func (c *refCache) enforceCapacity() error {
	for c.total > c.cfg.CapacityBlocks && c.lruTail != nil {
		victim := c.lruTail
		if victim.dirty {
			if err := c.writeBackRun(victim); err != nil {
				return err
			}
		}
		c.events.Emit(0, "cache", "evict", fmt.Sprintf("file %d blk %d", victim.f, victim.blk))
		c.drop(victim)
		c.st.EvictedBlocks++
	}
	return nil
}

// writeBackRun flushes the maximal contiguous dirty run containing
// b as one coalesced WriteBack call, then marks the run clean (the blocks
// stay cached). The run's stream is the trigger refBlock's writer.
func (c *refCache) writeBackRun(b *refBlock) error {
	fs := c.files[b.f]
	lo, hi := b.blk, b.blk+1
	for {
		prev := fs.blocks[lo-1]
		if prev == nil || !prev.dirty {
			break
		}
		lo--
	}
	for {
		next := fs.blocks[hi]
		if next == nil || !next.dirty {
			break
		}
		hi++
	}
	if err := c.store.WriteBack(b.f, b.stream, lo, hi-lo); err != nil {
		return err
	}
	for l := lo; l < hi; l++ {
		rb := fs.blocks[l]
		rb.dirty = false
		c.dirtyUnlink(rb)
		c.dirty--
	}
	c.st.Writebacks++
	c.st.WritebackBlocks += hi - lo
	return nil
}

// --- read path ---------------------------------------------------------

// Read serves [blk, blk+count) of f: cached blocks (clean or dirty) are
// hits costing nothing; missing runs are fetched from the backing store,
// extended by the adaptive readahead window when the reader has proven
// sequential, and inserted clean.
func (c *refCache) Read(f FileID, blk, count int64) error {
	if blk < 0 || count <= 0 {
		return fmt.Errorf("cache: invalid read [%d,+%d)", blk, count)
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
	var misses []span
	for i := int64(0); i < count; i++ {
		l := blk + i
		if b := fs.blocks[l]; b != nil {
			c.st.HitBlocks++
			if b.prefetched {
				b.prefetched = false
				c.st.ReadaheadUsed++
			}
			c.touch(b)
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
	// to exist and stopping at the first already-cached refBlock.
	var issued int64
	if window > 0 {
		ext := span{start: blk + count, count: 0}
		if n := len(misses); n > 0 && misses[n-1].start+misses[n-1].count == blk+count {
			// The request missed right up to its end: grow that run.
			for l := blk + count; l < blk+count+window; l++ {
				if fs.blocks[l] != nil || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
					break
				}
				misses[n-1].count++
				issued++
			}
		} else {
			for l := ext.start; l < ext.start+window; l++ {
				if fs.blocks[l] != nil || !fs.written.Contains(alloc.Range{Start: l, Count: 1}) {
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

	for _, m := range misses {
		if err := c.store.Fetch(f, m.start, m.count); err != nil {
			return err
		}
		for l := m.start; l < m.start+m.count; l++ {
			b := &refBlock{f: f, blk: l}
			if l >= blk+count {
				b.prefetched = true
			}
			fs.blocks[l] = b
			c.lruPush(b)
			c.total++
		}
	}
	c.st.ReadaheadIssued += issued
	return c.enforceCapacity()
}

// --- barriers and invalidation ----------------------------------------

// dirtyRuns returns f's dirty blocks coalesced into sorted runs.
func (c *refCache) dirtyRuns(fs *refFile) []span {
	var dirty []int64
	for l, b := range fs.blocks {
		if b.dirty {
			dirty = append(dirty, l)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	var runs []span
	for _, l := range dirty {
		if n := len(runs); n > 0 && runs[n-1].start+runs[n-1].count == l {
			runs[n-1].count++
		} else {
			runs = append(runs, span{start: l, count: 1})
		}
	}
	return runs
}

// FlushFile is the per-file barrier: every dirty refBlock of f is written
// back (coalesced into maximal runs, in ascending order). The PFS layer
// calls it on Fsync, Close, Truncate, and Delete.
func (c *refCache) FlushFile(f FileID) error {
	c.st.FlushBarriers++
	return c.flushFile(f)
}

// flushFile writes back every dirty run of f, in ascending order.
func (c *refCache) flushFile(f FileID) error {
	fs := c.files[f]
	if fs == nil {
		return nil
	}
	for _, r := range c.dirtyRuns(fs) {
		if err := c.writeBackRun(fs.blocks[r.start]); err != nil {
			return err
		}
	}
	return nil
}

// Flush is the mount-wide barrier: every dirty refBlock of every file is
// written back, files in ascending FileID order. The PFS layer calls it
// on Sync.
func (c *refCache) Flush() error {
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

// Truncate drops every cached refBlock of f at or beyond newSize and trims
// the known-written ranges, so stale tail blocks can neither hit nor be
// written back after the file shrinks. The PFS layer flushes f first (the
// barrier), then truncates the servers, then calls this.
func (c *refCache) Truncate(f FileID, newSize int64) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	var tail []int64
	for l := range fs.blocks {
		if l >= newSize {
			tail = append(tail, l)
		}
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	for _, l := range tail {
		c.drop(fs.blocks[l])
	}
	const maxLogical = int64(1) << 40
	fs.written.Remove(alloc.Range{Start: newSize, Count: maxLogical - newSize})
	if fs.lastEnd > newSize {
		fs.lastEnd, fs.run = 0, 0
	}
}

// Drop discards every cached refBlock of f — dirty ones too, without write-
// back. The PFS layer calls it after deleting the file's objects (the
// preceding flush barrier has already drained the dirty set).
func (c *refCache) Drop(f FileID) {
	fs := c.files[f]
	if fs == nil {
		return
	}
	var all []int64
	for l := range fs.blocks {
		all = append(all, l)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, l := range all {
		c.drop(fs.blocks[l])
	}
	delete(c.files, f)
}
