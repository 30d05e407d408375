package defrag

import (
	"strings"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

func vanillaFactory(src core.BlockSource, _ int64) core.Policy {
	return core.NewVanilla(src)
}

// agedServer interleaves writes from n vanilla-policy objects so every
// object lands in rounds alternating extents — a miniature of the paper's
// aged volume.
func agedServer(t *testing.T, n int, rounds, chunk int64) *ost.Server {
	t.Helper()
	s := ost.NewServer(0, ost.DefaultConfig())
	for id := 1; id <= n; id++ {
		if err := s.CreateObject(ost.ObjectID(id), vanillaFactory, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rounds; i++ {
		for id := 1; id <= n; id++ {
			st := core.StreamID{Client: 1, PID: uint32(id)}
			if err := s.Write(ost.ObjectID(id), st, i*chunk, chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Flush()
	return s
}

// TestControllerOwnerIsPerAllocator: a controller's reservation owner comes
// from its server's allocator, so two controllers over two fresh servers
// are handed the same owner, however many the process handed out before.
func TestControllerOwnerIsPerAllocator(t *testing.T) {
	owner := func() alloc.Owner {
		return NewController(ost.NewServer(0, ost.DefaultConfig()), DefaultConfig()).owner
	}
	if a, b := owner(), owner(); a != b {
		t.Fatalf("first controller's owner %d, the identical second one's %d", a, b)
	}
}

// TestDefragPreservesDataAndReducesExtents is the end-to-end property:
// after a full scan/plan/drain cycle every object's extent count is
// strictly reduced to the ideal, the logical→data mapping is untouched
// (every read verifies block tags end to end), no space leaks, and the
// server passes its consistency walk.
func TestDefragPreservesDataAndReducesExtents(t *testing.T) {
	const objects, rounds, chunk = 4, 16, 4
	s := agedServer(t, objects, rounds, chunk)
	freeBefore := s.Allocator().FreeBlocks()
	before := make(map[ost.ObjectID]ost.FragReport)
	for _, r := range s.FragReportAll() {
		before[r.Object] = r
	}

	c := NewController(s, DefaultConfig())
	if added := c.ScanAndPlan(); added != objects {
		t.Fatalf("ScanAndPlan planned %d objects, want %d", added, objects)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	for _, r := range s.FragReportAll() {
		b := before[r.Object]
		if r.Extents >= b.Extents {
			t.Fatalf("object %d: extents %d → %d, want a strict reduction", r.Object, b.Extents, r.Extents)
		}
		if r.Extents != r.IdealExtents {
			t.Fatalf("object %d: %d extents, ideal %d", r.Object, r.Extents, r.IdealExtents)
		}
		if r.MappedBlocks != b.MappedBlocks {
			t.Fatalf("object %d: mapped %d → %d, defrag must not change the logical image", r.Object, b.MappedBlocks, r.MappedBlocks)
		}
		if err := s.Read(r.Object, 0, r.MappedBlocks); err != nil {
			t.Fatalf("object %d data after defrag: %v", r.Object, err)
		}
	}
	if rep := s.CheckConsistency(); !rep.Clean() || rep.LeakedBlocks != 0 {
		t.Fatalf("post-defrag walk: leaks=%d problems=%s", rep.LeakedBlocks, strings.Join(rep.Problems, "; "))
	}
	if free := s.Allocator().FreeBlocks(); free != freeBefore {
		t.Fatalf("FreeBlocks %d → %d, defrag must conserve space", freeBefore, free)
	}
	if resv := s.Allocator().ReservedBlocks(); resv != 0 {
		t.Fatalf("ReservedBlocks = %d, want all destinations converted or rolled back", resv)
	}

	st := c.Stats()
	if st.ObjectsMigrated != objects || st.BlocksMoved != int64(objects)*rounds*chunk {
		t.Fatalf("stats = %+v, want %d objects and %d blocks", st, objects, objects*rounds*chunk)
	}
	if st.ExtentsAfter >= st.ExtentsBefore {
		t.Fatalf("extents %d → %d, want a reduction", st.ExtentsBefore, st.ExtentsAfter)
	}

	// A second pass finds nothing: the volume is defragmented.
	if added := c.ScanAndPlan(); added != 0 {
		t.Fatalf("second pass planned %d objects, want 0", added)
	}
}

func TestScanOrdersByScore(t *testing.T) {
	s := agedServer(t, 3, 8, 4)
	c := NewController(s, DefaultConfig())
	cands := c.Scan()
	if len(cands) != 3 {
		t.Fatalf("Scan found %d candidates, want 3", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatalf("candidates out of order: %v before %v", cands[i-1], cands[i])
		}
	}
	// MinExtents excludes healthy objects entirely.
	c2 := NewController(s, Config{MinExtents: 100})
	if got := c2.Scan(); len(got) != 0 {
		t.Fatalf("MinExtents=100 still found %d candidates", len(got))
	}
}

func TestStepYieldsToForeground(t *testing.T) {
	s := agedServer(t, 2, 8, 4)
	c := NewController(s, DefaultConfig())
	if c.ScanAndPlan() == 0 {
		t.Fatal("nothing planned")
	}
	// A small write stays queued below the batch threshold: foreground
	// work is pending and the mover must yield.
	if err := s.Write(1, core.StreamID{Client: 9, PID: 9}, 100, 4); err != nil {
		t.Fatal(err)
	}
	if s.PendingRequests() == 0 {
		t.Fatal("test setup: expected a queued foreground request")
	}
	moved, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || c.Stats().Preempted != 1 {
		t.Fatalf("moved=%d preempted=%d, want the step to yield", moved, c.Stats().Preempted)
	}
	s.Flush()
	if moved, err = c.Step(); err != nil || moved == 0 {
		t.Fatalf("after flush Step moved %d (%v), want progress", moved, err)
	}
}

func TestTokenBucketThrottles(t *testing.T) {
	s := agedServer(t, 2, 8, 4)
	cfg := DefaultConfig()
	cfg.SliceBlocks = 16
	cfg.RateBlocksPerSec = 16
	cfg.BurstBlocks = 16
	c := NewController(s, cfg)
	var now sim.Ns
	c.SetTimeSource(func() sim.Ns { return now })
	if c.ScanAndPlan() == 0 {
		t.Fatal("nothing planned")
	}
	// No simulated time has passed: the bucket is empty.
	if moved, _ := c.Step(); moved != 0 {
		t.Fatalf("moved %d blocks with an empty bucket", moved)
	}
	if c.Stats().Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", c.Stats().Throttled)
	}
	// One simulated second earns exactly one slice.
	now += sim.Ns(1e9)
	if moved, _ := c.Step(); moved == 0 {
		t.Fatal("bucket refilled but step did not run")
	}
	// The next step is throttled again until more time passes (the refund
	// of the short slice may allow a couple of small moves first).
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if th := c.Stats().Throttled; th < 2 {
		t.Fatalf("Throttled = %d, want the rate limit to keep biting", th)
	}
	// Drain ignores the throttle entirely and finishes the work.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", c.Pending())
	}
}

func TestPlannerAbortsWithoutContiguousSpace(t *testing.T) {
	// A tiny device: 2 objects × 8 rounds × 4 blocks = 64 blocks used of
	// 256; then pin alternating free blocks so no free run reaches
	// MinDestRun and every plan must be abandoned cleanly.
	cfg := ost.DefaultConfig()
	cfg.Blocks = 256
	cfg.GroupBlocks = 256
	s := ost.NewServer(0, cfg)
	for id := 1; id <= 2; id++ {
		if err := s.CreateObject(ost.ObjectID(id), vanillaFactory, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 8; i++ {
		for id := 1; id <= 2; id++ {
			if err := s.Write(ost.ObjectID(id), core.StreamID{Client: 1, PID: uint32(id)}, i*4, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Flush()
	// Shatter the free space: pin two of every four blocks so no free run
	// exceeds two blocks.
	st := s.Allocator().FreeContig()
	for b := st.LargestStart; b+4 <= st.LargestStart+st.LargestRun; b += 4 {
		if err := s.Allocator().AllocExact(999, alloc.Range{Start: b, Count: 2}); err != nil {
			t.Fatal(err)
		}
	}
	dcfg := DefaultConfig()
	dcfg.MinDestRun = 8
	c := NewController(s, dcfg)
	if added := c.ScanAndPlan(); added != 0 {
		t.Fatalf("planned %d objects with no contiguous space, want 0", added)
	}
	if sk := c.Stats().Skipped; sk == 0 {
		t.Fatal("Skipped = 0, want abandoned candidates counted")
	}
	if resv := s.Allocator().ReservedBlocks(); resv != 0 {
		t.Fatalf("ReservedBlocks = %d, want aborted plans rolled back", resv)
	}
}

func TestEngineAggregatesAndInstrument(t *testing.T) {
	s0 := agedServer(t, 2, 8, 4)
	s1 := agedServer(t, 2, 8, 4)
	e := NewEngine(DefaultConfig(), s0, s1)
	reg := telemetry.NewRegistry()
	e.Instrument(reg, telemetry.Labels{"fs": "test"})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ObjectsMigrated != 4 {
		t.Fatalf("ObjectsMigrated = %d, want 4 across both OSTs", st.ObjectsMigrated)
	}
	var moved, pending int64
	seen := map[string]bool{}
	for _, m := range reg.Snapshot() {
		seen[m.Name] = true
		switch m.Name {
		case "defrag_blocks_moved":
			moved += m.Value
		case "defrag_plans_pending":
			pending += m.Value
		}
	}
	if moved != st.BlocksMoved {
		t.Fatalf("registry blocks_moved = %d, stats say %d", moved, st.BlocksMoved)
	}
	if pending != 0 {
		t.Fatalf("plans_pending = %d after Run", pending)
	}
	for _, name := range []string{"defrag_slices", "defrag_extents_before", "defrag_extents_after", "defrag_slice_ns"} {
		if !seen[name] {
			t.Errorf("metric %s not published", name)
		}
	}
}
