package core

import (
	"errors"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/extent"
)

// newSrc builds a fresh allocator for policy tests: 1 GiB of 4 KiB blocks
// in 4 groups.
func newSrc() *alloc.Allocator { return alloc.New(262144, 65536) }

// place is a test helper that fails on error.
func place(t *testing.T, p Policy, s StreamID, logical, count, goal int64) []Placement {
	t.Helper()
	out, err := p.Place(s, logical, count, goal)
	if err != nil {
		t.Fatalf("%s.Place(%v, %d, %d): %v", p.Name(), s, logical, count, err)
	}
	// Place reuses its result buffer across calls; keep a copy.
	return append([]Placement(nil), out...)
}

// mapPlacements folds placements into an extent map, clipping out already
// mapped sub-ranges the way the IO server does with promoted windows.
func mapPlacements(t *testing.T, m *extent.Map, ps []Placement) {
	t.Helper()
	for _, pl := range ps {
		logical, count := pl.Logical, pl.Count
		for count > 0 {
			covered := m.LookupRange(logical, count)
			gapEnd := logical + count
			if len(covered) > 0 {
				gapEnd = covered[0].Logical
			}
			if gapEnd > logical {
				n := gapEnd - logical
				off := logical - pl.Logical
				if err := m.Insert(extent.Extent{Logical: logical, Physical: pl.Physical + off, Count: n}); err != nil {
					t.Fatalf("insert: %v", err)
				}
				logical += n
				count -= n
				continue
			}
			// Skip the covered prefix.
			n := covered[0].Count
			logical += n
			count -= n
		}
	}
}

func TestOnDemandSingleSequentialStream(t *testing.T) {
	src := newSrc()
	p := NewOnDemand(src, OnDemandConfig{Scale: 4, MaxPreallocBlocks: 2048, MissThreshold: 4})
	s := StreamID{Client: 1, PID: 1}
	var m extent.Map
	// 256 sequential 8-block writes = 2048 blocks.
	goal := int64(0)
	for i := int64(0); i < 256; i++ {
		ps := place(t, p, s, i*8, 8, goal)
		mapPlacements(t, &m, ps)
		if lp, ok := m.LastPhysical(); ok {
			goal = lp
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A single sequential stream on an empty device must produce a
	// near-contiguous layout: very few extents.
	if m.Len() > 3 {
		t.Fatalf("sequential stream produced %d extents (%v...), want <= 3", m.Len(), m.Extents()[:3])
	}
	st := p.Stats()
	if st.LayoutMisses != 1 {
		t.Fatalf("LayoutMisses = %d, want 1 (the first extend only)", st.LayoutMisses)
	}
	if st.PreallocHits == 0 {
		t.Fatal("sequential stream should hit pre_alloc_layout")
	}
	if st.StreamsDisabled != 0 {
		t.Fatal("sequential stream must not be disabled")
	}
}

func TestOnDemandFigure3WalkThrough(t *testing.T) {
	// The paper's Figure 3 example: three streams, one-block requests,
	// scale 2. T1: first writes (100, 200, 300) are layout misses. T2:
	// writes 101 and 201 hit pre_alloc_layout. T3: writes 102 and 202
	// hit neither trigger.
	src := newSrc()
	p := NewOnDemand(src, OnDemandConfig{Scale: 2, MaxPreallocBlocks: 2048, MissThreshold: 4})
	p1 := StreamID{Client: 1, PID: 1}
	p2 := StreamID{Client: 2, PID: 1}
	p3 := StreamID{Client: 3, PID: 1}

	// T1
	place(t, p, p1, 100, 1, 0)
	place(t, p, p2, 200, 1, 0)
	place(t, p, p3, 300, 1, 0)
	st := p.Stats()
	if st.LayoutMisses != 3 || st.PreallocHits != 0 {
		t.Fatalf("after T1: misses=%d hits=%d, want 3/0", st.LayoutMisses, st.PreallocHits)
	}

	// T2
	pl1 := place(t, p, p1, 101, 1, 0)
	pl2 := place(t, p, p2, 201, 1, 0)
	st = p.Stats()
	if st.PreallocHits != 2 {
		t.Fatalf("after T2: hits=%d, want 2", st.PreallocHits)
	}
	// The promoted windows are whole preallocated ranges.
	if !pl1[0].Preallocated || !pl2[0].Preallocated {
		t.Fatal("T2 placements should be promoted (preallocated) windows")
	}
	// Window initialized as write_size×2 = 2 blocks at T1; promotion
	// hands over those 2 blocks.
	if pl1[0].Count != 2 || pl1[0].Logical != 101 {
		t.Fatalf("promoted window = %+v, want logical 101 len 2", pl1[0])
	}

	// T3: writes 102, 202 are inside the previous preallocation (current
	// window) — no trigger.
	place(t, p, p1, 102, 1, 0)
	place(t, p, p2, 202, 1, 0)
	st = p.Stats()
	if st.LayoutMisses != 3 || st.PreallocHits != 2 {
		t.Fatalf("after T3: misses=%d hits=%d, want unchanged 3/2", st.LayoutMisses, st.PreallocHits)
	}
	if st.InWindowWrites != 2 {
		t.Fatalf("after T3: in-window writes = %d, want 2", st.InWindowWrites)
	}
}

func TestOnDemandStreamsStayContiguous(t *testing.T) {
	// Three streams extend disjoint regions of a shared file, requests
	// arriving round-robin. Each region must stay physically contiguous
	// — the core claim of on-demand preallocation.
	src := newSrc()
	p := NewOnDemand(src, DefaultOnDemandConfig())
	streams := []StreamID{{1, 1}, {2, 1}, {3, 1}}
	var m extent.Map
	goal := int64(0)
	const regionBlocks = 512
	for i := int64(0); i < regionBlocks; i++ {
		for si, s := range streams {
			logical := int64(si)*regionBlocks + i
			ps := place(t, p, s, logical, 1, goal)
			mapPlacements(t, &m, ps)
		}
		if lp, ok := m.LastPhysical(); ok {
			goal = lp
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reading any one region sequentially should cross only a handful of
	// extents: window ramp-up from 4 to 2048 blocks covers 512 blocks in
	// ~5 windows.
	for si := range streams {
		got := m.LookupRange(int64(si)*regionBlocks, regionBlocks)
		if len(got) > 8 {
			t.Errorf("region %d fragmented into %d extents, want <= 8", si, len(got))
		}
	}
}

func TestOnDemandRandomStreamDisabled(t *testing.T) {
	src := newSrc()
	cfg := DefaultOnDemandConfig()
	cfg.MissThreshold = 4
	p := NewOnDemand(src, cfg)
	s := StreamID{Client: 1, PID: 9}
	// Scattered single-block writes: every one is a layout miss.
	for i, logical := range []int64{1000, 5000, 50, 9000, 2500, 7777} {
		if _, err := p.Place(s, logical, 1, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.StreamsDisabled != 1 {
		t.Fatalf("StreamsDisabled = %d, want 1", st.StreamsDisabled)
	}
	// Once disabled, no reservations remain for this file.
	if n := src.ReservedBlocks(); n != 0 {
		t.Fatalf("ReservedBlocks = %d, want 0 after disable", n)
	}
}

func TestOnDemandRandomDoesNotDisturbSequential(t *testing.T) {
	// "preallocation sequence of the sequential stream interposed by
	// random streams is not interrupted."
	src := newSrc()
	p := NewOnDemand(src, DefaultOnDemandConfig())
	seq := StreamID{Client: 1, PID: 1}
	rnd := StreamID{Client: 2, PID: 2}
	var m extent.Map
	randomOffsets := []int64{90000, 95000, 91234, 99999, 93000, 97000, 92000, 96000}
	for i := int64(0); i < 64; i++ {
		ps := place(t, p, seq, i*4, 4, 0)
		mapPlacements(t, &m, ps)
		place(t, p, rnd, randomOffsets[i%8]+i, 1, 0)
	}
	got := m.LookupRange(0, 256)
	if len(got) > 6 {
		t.Fatalf("sequential region fragmented into %d extents by random interposer", len(got))
	}
	st := p.Stats()
	if st.StreamsDisabled != 1 {
		t.Fatalf("StreamsDisabled = %d, want 1 (the random stream)", st.StreamsDisabled)
	}
}

func TestOnDemandWindowRampAndCap(t *testing.T) {
	src := newSrc()
	cfg := OnDemandConfig{Scale: 4, MaxPreallocBlocks: 64, MissThreshold: 4}
	p := NewOnDemand(src, cfg)
	s := StreamID{1, 1}
	var m extent.Map
	var maxPlacement int64
	for i := int64(0); i < 512; i++ {
		ps := place(t, p, s, i, 1, 0)
		mapPlacements(t, &m, ps)
		for _, pl := range ps {
			if pl.Count > maxPlacement {
				maxPlacement = pl.Count
			}
		}
	}
	if maxPlacement > cfg.MaxPreallocBlocks {
		t.Fatalf("placement of %d blocks exceeds MaxPreallocBlocks %d", maxPlacement, cfg.MaxPreallocBlocks)
	}
	if maxPlacement < cfg.MaxPreallocBlocks/2 {
		t.Fatalf("window never ramped near the cap: max placement %d", maxPlacement)
	}
}

func TestOnDemandCloseReleasesReservations(t *testing.T) {
	src := newSrc()
	p := NewOnDemand(src, DefaultOnDemandConfig())
	for c := uint32(1); c <= 4; c++ {
		place(t, p, StreamID{Client: c, PID: 1}, int64(c)*1000, 8, 0)
	}
	if src.ReservedBlocks() == 0 {
		t.Fatal("expected live sequential-window reservations before Close")
	}
	p.Close()
	if n := src.ReservedBlocks(); n != 0 {
		t.Fatalf("ReservedBlocks = %d after Close, want 0", n)
	}
	// Current windows persist: allocated blocks are untouched.
	if src.FreeBlocks() == src.Total() {
		t.Fatal("persistent preallocations must survive Close")
	}
}

// failingConvert is an allocator whose ConvertReserved fails once ok
// conversions have succeeded.
type failingConvert struct {
	*alloc.Allocator
	ok int
}

var errConvert = errors.New("injected ConvertReserved failure")

func (s *failingConvert) ConvertReserved(owner alloc.Owner, r alloc.Range) error {
	if s.ok == 0 {
		return errConvert
	}
	s.ok--
	return s.Allocator.ConvertReserved(owner, r)
}

// TestOnDemandFailedPromotionReturnsPlacedRuns: a Place that promotes one
// window and then fails promoting the next must hand back the window it
// already took together with the error — the caller owns and frees it.
func TestOnDemandFailedPromotionReturnsPlacedRuns(t *testing.T) {
	src := &failingConvert{Allocator: newSrc(), ok: 1}
	p := NewOnDemand(src, OnDemandConfig{Scale: 4, MaxPreallocBlocks: 2048, MissThreshold: 4})
	s := StreamID{Client: 1, PID: 1}
	// The first extend allocates [0,4) and reserves the window [4,20).
	placed := place(t, p, s, 0, 4, 0)
	// [4,44) promotes [4,20), reserves [20,84), and fails promoting that.
	out, err := p.Place(s, 4, 40, 0)
	if !errors.Is(err, errConvert) {
		t.Fatalf("err = %v, want the injected conversion failure", err)
	}
	if len(out) != 1 || out[0].Logical != 4 || out[0].Count != 16 || !out[0].Preallocated {
		t.Fatalf("placements returned with the error = %+v, want the promoted window [4,+16)", out)
	}
	for _, pl := range append(placed, out...) {
		if err := src.Free(alloc.Range{Start: pl.Physical, Count: pl.Count}); err != nil {
			t.Fatal(err)
		}
	}
	if used := src.Total() - src.FreeBlocks(); used != 0 {
		t.Fatalf("%d blocks still allocated after freeing every placement", used)
	}
}

func TestReservationArrivalOrderInterleaving(t *testing.T) {
	// Figure 1(a): with per-inode reservation, round-robin arrivals from
	// different streams land physically interleaved in arrival order.
	src := newSrc()
	p := NewReservation(src, 1024)
	s1, s2 := StreamID{1, 1}, StreamID{2, 1}
	a := place(t, p, s1, 100, 1, 0)
	b := place(t, p, s2, 200, 1, 0)
	c := place(t, p, s1, 101, 1, 0)
	d := place(t, p, s2, 201, 1, 0)
	if b[0].Physical != a[0].Physical+1 || c[0].Physical != b[0].Physical+1 || d[0].Physical != c[0].Physical+1 {
		t.Fatalf("arrival order broken: %v %v %v %v", a, b, c, d)
	}
	// Consequence: each stream's logical region is physically
	// discontiguous (stride 2).
	var m extent.Map
	for _, ps := range [][]Placement{a, b, c, d} {
		mapPlacements(t, &m, ps)
	}
	if got := m.LookupRange(100, 2); len(got) != 2 {
		t.Fatalf("stream 1 region should be fragmented, got %v", got)
	}
}

func TestReservationWindowRefill(t *testing.T) {
	src := newSrc()
	p := NewReservation(src, 16)
	s := StreamID{1, 1}
	ps := place(t, p, s, 0, 40, 0) // spans three windows
	var total int64
	for _, pl := range ps {
		total += pl.Count
	}
	if total != 40 {
		t.Fatalf("placed %d blocks, want 40", total)
	}
	p.Close()
	if src.ReservedBlocks() != 0 {
		t.Fatal("Close should drop the unconsumed window")
	}
}

func TestVanillaAllocatesImmediately(t *testing.T) {
	src := newSrc()
	p := NewVanilla(src)
	ps := place(t, p, StreamID{1, 1}, 0, 8, 0)
	if len(ps) != 1 || ps[0].Count != 8 {
		t.Fatalf("placements = %v", ps)
	}
	if src.FreeBlocks() != src.Total()-8 {
		t.Fatal("vanilla must allocate exactly the written blocks")
	}
	if src.ReservedBlocks() != 0 {
		t.Fatal("vanilla must not reserve")
	}
}

func TestStaticFallocateContiguous(t *testing.T) {
	src := newSrc()
	p := NewStatic(src, 4096)
	if err := p.Fallocate(0); err != nil {
		t.Fatal(err)
	}
	runs := p.Placed()
	if len(runs) != 1 || runs[0].Count != 4096 {
		t.Fatalf("fallocate on empty device should be one run, got %v", runs)
	}
	ps := place(t, p, StreamID{1, 1}, 100, 10, 0)
	if len(ps) != 1 || ps[0].Physical != runs[0].Physical+100 {
		t.Fatalf("static placement = %v", ps)
	}
	// Out-of-bounds write fails.
	if _, err := p.Place(StreamID{1, 1}, 4090, 10, 0); err == nil {
		t.Fatal("write past declared size should fail")
	}
}

func TestPlaceRejectsInvalidRanges(t *testing.T) {
	src := newSrc()
	for _, p := range []Policy{
		NewOnDemand(src, DefaultOnDemandConfig()),
		NewReservation(src, 64),
		NewVanilla(src),
		NewStatic(src, 100),
	} {
		if _, err := p.Place(StreamID{1, 1}, -1, 5, 0); err == nil {
			t.Errorf("%s: negative logical accepted", p.Name())
		}
		if _, err := p.Place(StreamID{1, 1}, 0, 0, 0); err == nil {
			t.Errorf("%s: zero count accepted", p.Name())
		}
	}
}

// TestOwnersArePerAllocator: a policy's reservation owners come from the
// allocator it draws on, so two identical policies over two fresh
// allocators are handed the same owners, however many the process handed
// out before.
func TestOwnersArePerAllocator(t *testing.T) {
	owners := func() []alloc.Owner {
		src := newSrc()
		res := NewReservation(src, 64)
		od := NewOnDemand(src, DefaultOnDemandConfig())
		out := []alloc.Owner{res.owner}
		for c := uint32(0); c < 3; c++ {
			s := StreamID{Client: c, PID: 1}
			place(t, od, s, int64(c)*8, 8, 0)
			out = append(out, od.streams[s].owner)
		}
		return out
	}
	first, second := owners(), owners()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("owners of the first policies %v, of the identical second ones %v", first, second)
		}
	}
}
