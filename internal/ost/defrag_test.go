package ost

import (
	"fmt"
	"strings"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/core"
)

// fragmentTwo interleaves writes from two vanilla-policy objects so each
// ends up in many small, alternating extents — the aging pattern the paper
// measures and the defrag machinery exists to undo. Each object gets
// rounds*chunk logically contiguous blocks.
func fragmentTwo(t *testing.T, rounds, chunk int64) *Server {
	t.Helper()
	s := NewServer(0, DefaultConfig())
	for _, id := range []ObjectID{1, 2} {
		if err := s.CreateObject(id, vanillaFactory, 0); err != nil {
			t.Fatal(err)
		}
	}
	st1 := core.StreamID{Client: 1, PID: 1}
	st2 := core.StreamID{Client: 1, PID: 2}
	for i := int64(0); i < rounds; i++ {
		if err := s.Write(1, st1, i*chunk, chunk); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(2, st2, i*chunk, chunk); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	return s
}

func TestFragReport(t *testing.T) {
	s := fragmentTwo(t, 16, 4)
	r, err := s.FragReport(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Extents != 16 {
		t.Fatalf("Extents = %d, want 16 interleaved pieces", r.Extents)
	}
	if r.MappedBlocks != 64 || r.OwnedBlocks != 64 {
		t.Fatalf("MappedBlocks = %d OwnedBlocks = %d, want 64", r.MappedBlocks, r.OwnedBlocks)
	}
	if r.IdealExtents != 1 {
		t.Fatalf("IdealExtents = %d, want 1 (no logical holes)", r.IdealExtents)
	}
	if r.Degree != 16 {
		t.Fatalf("Degree = %v, want 16", r.Degree)
	}
	if r.SpanBlocks <= r.MappedBlocks {
		t.Fatalf("SpanBlocks = %d, want > %d for an interleaved layout", r.SpanBlocks, r.MappedBlocks)
	}
	all := s.FragReportAll()
	if len(all) != 2 || all[0].Object != 1 || all[1].Object != 2 {
		t.Fatalf("FragReportAll = %+v, want objects 1,2 in order", all)
	}
}

func TestFragReportIdealCountsHoles(t *testing.T) {
	s := NewServer(0, DefaultConfig())
	s.CreateObject(1, vanillaFactory, 0)
	st := core.StreamID{Client: 1, PID: 1}
	// Two logical runs separated by a hole: the ideal layout needs two
	// extents, so a two-extent object is NOT fragmented.
	s.Write(1, st, 0, 8)
	s.Write(1, st, 100, 8)
	s.Flush()
	r, err := s.FragReport(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.IdealExtents != 2 {
		t.Fatalf("IdealExtents = %d, want 2 (hole splits the logical runs)", r.IdealExtents)
	}
	if r.Extents == r.IdealExtents && r.Degree != 1 {
		t.Fatalf("Degree = %v, want 1 for an ideal layout", r.Degree)
	}
}

// TestCopyRangeCrashSafety drives a migration through its two halves and
// verifies the crash-contract at the midpoint: after CopyRange but before
// FreeMigrated — the state a crash would freeze — the server is fully
// consistent, the data verifiable, and the old blocks merely leaked.
func TestCopyRangeCrashSafety(t *testing.T) {
	s := fragmentTwo(t, 16, 4)
	const owner alloc.Owner = 1 << 40
	freeBefore := s.Allocator().FreeBlocks()

	dst, err := s.Allocator().ReserveNear(owner, s.Allocator().FreeContig().LargestStart, 64)
	if err != nil || dst.Count != 64 {
		t.Fatalf("ReserveNear = %v, %v; want a 64-block destination", dst, err)
	}
	cost, old, err := s.CopyRange(1, owner, 0, 64, dst)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v, want positive device time for a 64-block copy", cost)
	}
	var oldBlocks int64
	for _, e := range old {
		oldBlocks += e.Count
	}
	if oldBlocks != 64 {
		t.Fatalf("old extents cover %d blocks, want 64", oldBlocks)
	}

	// Mid-migration: consistent, data intact, old space leaked not lost.
	rep := s.CheckConsistency()
	if !rep.Clean() {
		t.Fatalf("mid-migration problems: %s", strings.Join(rep.Problems, "; "))
	}
	if rep.LeakedBlocks != 64 {
		t.Fatalf("LeakedBlocks = %d, want exactly the 64 not-yet-freed source blocks", rep.LeakedBlocks)
	}
	for _, id := range []ObjectID{1, 2} {
		if err := s.Read(id, 0, 64); err != nil {
			t.Fatalf("read object %d mid-migration: %v", id, err)
		}
	}
	if r, _ := s.FragReport(1); r.Extents != 1 {
		t.Fatalf("Extents after migration = %d, want 1 contiguous", r.Extents)
	}

	// Second half: the leak disappears, free space is conserved.
	if err := s.FreeMigrated(1, old); err != nil {
		t.Fatal(err)
	}
	rep = s.CheckConsistency()
	if !rep.Clean() || rep.LeakedBlocks != 0 {
		t.Fatalf("after FreeMigrated: leaks=%d problems=%v", rep.LeakedBlocks, rep.Problems)
	}
	if free := s.Allocator().FreeBlocks(); free != freeBefore {
		t.Fatalf("FreeBlocks = %d, want %d (migration must conserve space)", free, freeBefore)
	}
	if err := s.Read(1, 0, 64); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyCountsUnownedBlocks: a block allocated in the bitmap
// behind every object's back is mapped and owned by nothing, so only the
// used-count comparison can see it — and the report must name the gap.
func TestCheckConsistencyCountsUnownedBlocks(t *testing.T) {
	s := fragmentTwo(t, 4, 4)
	if rep := s.CheckConsistency(); !rep.Clean() {
		t.Fatalf("fresh server: %v", rep.Problems)
	}
	used := s.UsedBlocks()
	if _, got, err := s.Allocator().AllocNear(1<<40, 0, 1); err != nil || got != 1 {
		t.Fatalf("AllocNear = %d, %v; want one block", got, err)
	}
	rep := s.CheckConsistency()
	want := fmt.Sprintf("allocator counts %d used blocks, objects own %d", used+1, used)
	if len(rep.Problems) != 1 || rep.Problems[0] != want {
		t.Fatalf("problems = %q, want [%q]", rep.Problems, want)
	}
}

func TestCopyRangeRejectsBadArguments(t *testing.T) {
	s := fragmentTwo(t, 4, 4)
	const owner alloc.Owner = 1 << 40
	dst, err := s.Allocator().ReserveNear(owner, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Destination length must match the range.
	if _, _, err := s.CopyRange(1, owner, 0, 4, dst); err == nil {
		t.Fatal("mismatched destination length should fail")
	}
	// The range must be fully mapped.
	if _, _, err := s.CopyRange(1, owner, 1000, 8, dst); err == nil {
		t.Fatal("migrating an unmapped range should fail")
	}
	// Failed attempts must not have consumed the reservation.
	if got := s.Allocator().Reservations(owner); len(got) != 1 || got[0] != dst {
		t.Fatalf("reservation disturbed by failed CopyRange: %v", got)
	}
}

func TestNextMappedExtentWalk(t *testing.T) {
	s := fragmentTwo(t, 4, 4)
	var walked int64
	cursor := int64(0)
	for {
		e, ok, err := s.NextMappedExtent(1, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Logical != cursor {
			t.Fatalf("walk skipped: extent at %d, cursor %d", e.Logical, cursor)
		}
		walked += e.Count
		cursor = e.LogicalEnd()
	}
	if walked != 16 {
		t.Fatalf("walked %d blocks, want 16", walked)
	}
}
