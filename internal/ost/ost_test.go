package ost

import (
	"errors"
	"testing"
	"testing/quick"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/sim"
)

func onDemandFactory(src core.BlockSource, _ int64) core.Policy {
	return core.NewOnDemand(src, core.DefaultOnDemandConfig())
}

func reservationFactory(src core.BlockSource, _ int64) core.Policy {
	return core.NewReservation(src, 2048)
}

func staticFactory(src core.BlockSource, sizeHint int64) core.Policy {
	return core.NewStatic(src, sizeHint)
}

func newServer(t *testing.T, f PolicyFactory) *Server {
	t.Helper()
	return NewServer(0, DefaultConfig())
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newServer(t, onDemandFactory)
	if err := s.CreateObject(1, onDemandFactory, 0); err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 64; i++ {
		if err := s.Write(1, stream, i*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if err := s.Read(1, 0, 512); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	st := s.Disk().Stats()
	if st.BlocksWritten < 512 {
		t.Fatalf("BlocksWritten = %d, want >= 512", st.BlocksWritten)
	}
	if st.BlocksRead < 512 {
		t.Fatalf("BlocksRead = %d, want >= 512", st.BlocksRead)
	}
}

func TestReadHoleFails(t *testing.T) {
	s := newServer(t, onDemandFactory)
	s.CreateObject(1, onDemandFactory, 0)
	if err := s.Read(1, 0, 4); err == nil {
		t.Fatal("reading an unwritten object should fail")
	}
}

func TestCreateDuplicateObjectFails(t *testing.T) {
	s := newServer(t, onDemandFactory)
	if err := s.CreateObject(1, onDemandFactory, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateObject(1, onDemandFactory, 0); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestOverwriteDoesNotReallocate(t *testing.T) {
	s := newServer(t, onDemandFactory)
	s.CreateObject(1, onDemandFactory, 0)
	stream := core.StreamID{Client: 1, PID: 1}
	if err := s.Write(1, stream, 0, 16); err != nil {
		t.Fatal(err)
	}
	owned1, _ := s.OwnedBlocks(1)
	if err := s.Write(1, stream, 0, 16); err != nil {
		t.Fatal(err)
	}
	owned2, _ := s.OwnedBlocks(1)
	if owned1 != owned2 {
		t.Fatalf("overwrite grew owned blocks %d -> %d", owned1, owned2)
	}
	s.Flush()
	if err := s.Read(1, 0, 16); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFreesEverything(t *testing.T) {
	s := newServer(t, onDemandFactory)
	s.CreateObject(1, onDemandFactory, 0)
	stream := core.StreamID{Client: 1, PID: 1}
	// Sequential writes trigger window promotions: owned includes
	// preallocated blocks beyond what was written.
	for i := int64(0); i < 32; i++ {
		if err := s.Write(1, stream, i*4, 4); err != nil {
			t.Fatal(err)
		}
	}
	owned, _ := s.OwnedBlocks(1)
	if owned < 128 {
		t.Fatalf("owned = %d, want >= 128 written blocks", owned)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	a := s.Allocator()
	if a.FreeBlocks() != a.Total() {
		t.Fatalf("FreeBlocks = %d after delete, want %d", a.FreeBlocks(), a.Total())
	}
	if a.ReservedBlocks() != 0 {
		t.Fatal("reservations should be gone after delete")
	}
	if err := s.Read(1, 0, 1); err == nil {
		t.Fatal("read of deleted object should fail")
	}
}

func TestFallocateStatic(t *testing.T) {
	s := newServer(t, staticFactory)
	s.CreateObject(7, staticFactory, 1024)
	if err := s.Fallocate(7, core.StreamID{}, 1024); err != nil {
		t.Fatal(err)
	}
	n, err := s.ExtentCount(7)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("static fallocate should map one extent, got %d", n)
	}
	// Unwritten preallocated blocks read as zeroes (no error).
	if err := s.Read(7, 0, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSharedFileLessFragmentedWithOnDemand(t *testing.T) {
	// The paper's headline mechanism, end to end at the OST level: 16
	// streams extend disjoint regions round-robin. On-demand placement
	// must yield far fewer extents than the reservation baseline.
	run := func(f PolicyFactory) int {
		s := NewServer(0, DefaultConfig())
		s.CreateObject(1, f, 0)
		const streams = 16
		const regionBlocks = 256
		for i := int64(0); i < regionBlocks; i += 4 {
			for c := 0; c < streams; c++ {
				stream := core.StreamID{Client: uint32(c), PID: 1}
				logical := int64(c)*regionBlocks + i
				if err := s.Write(1, stream, logical, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Flush()
		n, err := s.ExtentCount(1)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	onDemand := run(onDemandFactory)
	reservation := run(reservationFactory)
	if onDemand*4 > reservation {
		t.Fatalf("on-demand extents = %d, reservation = %d; want >= 4x reduction", onDemand, reservation)
	}
}

func TestFragmentedLayoutReadsSlower(t *testing.T) {
	// Phase-2 of the paper's micro-benchmark: reading back the shared
	// file region by region is slower when phase-1 placement interleaved
	// the streams.
	run := func(f PolicyFactory) sim.Ns {
		s := NewServer(0, DefaultConfig())
		s.CreateObject(1, f, 0)
		const streams = 16
		const regionBlocks = 512
		for i := int64(0); i < regionBlocks; i++ {
			for c := 0; c < streams; c++ {
				stream := core.StreamID{Client: uint32(c), PID: 1}
				if err := s.Write(1, stream, int64(c)*regionBlocks+i, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Flush()
		s.Disk().ResetStats()
		// Sequential read back, one region at a time.
		for c := 0; c < streams; c++ {
			for i := int64(0); i < regionBlocks; i += 16 {
				if err := s.Read(1, int64(c)*regionBlocks+i, 16); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Flush()
		return s.Disk().Stats().BusyNs
	}
	onDemand := run(onDemandFactory)
	reservation := run(reservationFactory)
	if reservation < onDemand*11/10 {
		t.Fatalf("reservation read time %d should exceed on-demand %d by >10%%", reservation, onDemand)
	}
}

// Property: for any interleaving of writes from multiple streams, every
// block reads back correctly and owned space always covers mapped space.
func TestWriteReadIntegrityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := NewServer(0, DefaultConfig())
		s.CreateObject(1, onDemandFactory, 0)
		written := map[int64]bool{}
		for op := 0; op < 150; op++ {
			stream := core.StreamID{Client: uint32(rng.Intn(4)), PID: 1}
			logical := rng.Int63n(4096)
			count := rng.Int63n(16) + 1
			if err := s.Write(1, stream, logical, count); err != nil {
				return false
			}
			for b := logical; b < logical+count; b++ {
				written[b] = true
			}
		}
		s.Flush()
		for b := range written {
			if err := s.Read(1, b, 1); err != nil {
				return false
			}
		}
		mapped, err := s.Extents(1)
		if err != nil {
			return false
		}
		owned, _ := s.OwnedBlocks(1)
		var mappedBlocks int64
		for _, e := range mapped {
			mappedBlocks += e.Count
		}
		return owned >= mappedBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: after deleting any set of objects, the allocator's free count
// equals total minus the owned blocks of the surviving objects.
func TestDeleteAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := NewServer(0, DefaultConfig())
		live := map[ObjectID]bool{}
		for op := 0; op < 60; op++ {
			id := ObjectID(rng.Intn(10))
			if live[id] && rng.Intn(3) == 0 {
				if s.Delete(id) != nil {
					return false
				}
				delete(live, id)
				continue
			}
			if !live[id] {
				if s.CreateObject(id, reservationFactory, 0) != nil {
					return false
				}
				live[id] = true
			}
			stream := core.StreamID{Client: uint32(rng.Intn(3)), PID: 1}
			if s.Write(id, stream, rng.Int63n(512), rng.Int63n(8)+1) != nil {
				return false
			}
		}
		var owned int64
		for id := range live {
			n, err := s.OwnedBlocks(id)
			if err != nil {
				return false
			}
			owned += n
		}
		a := s.Allocator()
		return a.FreeBlocks() == a.Total()-owned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedPlaceLeaksNoBlocks fills a small volume until a write runs out
// of space halfway through its allocation: the runs the policy took before
// the allocator ran dry must end up owned by the object, so that deleting
// every object returns the volume to empty.
func TestFailedPlaceLeaksNoBlocks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory PolicyFactory
	}{
		{"vanilla", vanillaFactory},
		{"reservation", reservationFactory},
		{"on-demand", onDemandFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Blocks = 4096
			cfg.GroupBlocks = 1024
			s := NewServer(0, cfg)
			for id := ObjectID(1); id <= 2; id++ {
				if err := s.CreateObject(id, tc.factory, 0); err != nil {
					t.Fatal(err)
				}
			}
			// Two interleaved writers, then one file goes: free space is
			// left in pieces, so the big write below allocates in several
			// runs before it hits the end.
			for i := int64(0); i < 128; i++ {
				for id := ObjectID(1); id <= 2; id++ {
					if err := s.Write(id, core.StreamID{Client: uint32(id), PID: 1}, i*8, 8); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Delete(1); err != nil {
				t.Fatal(err)
			}
			err := s.Write(2, core.StreamID{Client: 2, PID: 1}, 1024, 4000)
			if !errors.Is(err, alloc.ErrNoSpace) {
				t.Fatalf("oversized write: %v, want ErrNoSpace", err)
			}
			if err := s.Delete(2); err != nil {
				t.Fatal(err)
			}
			if n, used := s.ObjectCount(), s.UsedBlocks(); n != 0 || used != 0 {
				t.Fatalf("%d objects, %d blocks still allocated after deleting everything", n, used)
			}
			if rep := s.CheckConsistency(); !rep.Clean() {
				t.Fatalf("inconsistent after failed write: %v", rep.Problems)
			}
		})
	}
}
