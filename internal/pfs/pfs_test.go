package pfs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/mdfs"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

func newMiF(t *testing.T, osts int) *FS {
	t.Helper()
	fs, err := New(MiF(osts))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	for _, cfgFn := range []func(int) Config{MiF, RedbudOrig, LustreLike} {
		cfg := cfgFn(4)
		t.Run(cfg.Name, func(t *testing.T) {
			fs, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create(fs.Root(), "shared.dat", 0)
			if err != nil {
				t.Fatal(err)
			}
			stream := core.StreamID{Client: 1, PID: 1}
			for i := int64(0); i < 64; i++ {
				if err := f.Write(stream, i*16, 16); err != nil {
					t.Fatal(err)
				}
			}
			fs.Flush()
			if err := f.Read(0, 1024); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// Re-open with the aggregated open+getlayout.
			h, err := fs.Open(fs.Root(), "shared.dat")
			if err != nil {
				t.Fatal(err)
			}
			if h.Ino() != f.Ino() {
				t.Fatalf("reopen ino mismatch: %v vs %v", h.Ino(), f.Ino())
			}
		})
	}
}

func TestStripingDistributesBlocks(t *testing.T) {
	fs := newMiF(t, 4)
	f, _ := fs.Create(fs.Root(), "s", 0)
	stream := core.StreamID{Client: 1, PID: 1}
	// Write 64 stripe units.
	if err := f.Write(stream, 0, 16*64); err != nil {
		t.Fatal(err)
	}
	fs.Flush()
	for i := 0; i < 4; i++ {
		st := fs.OST(i).Disk().Stats()
		if st.BlocksWritten != 256 {
			t.Fatalf("OST %d wrote %d blocks, want 256", i, st.BlocksWritten)
		}
	}
}

func TestStripeRangeMath(t *testing.T) {
	fs, err := New(func() Config {
		c := MiF(3)
		c.StripeBlocks = 16
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	// Range spanning several stripe units with an unaligned head.
	pieces := fs.appendStripeRange(nil, 10, 60) // stripe unit 16, 3 OSTs
	var total int64
	for _, p := range pieces {
		if p.count <= 0 {
			t.Fatalf("non-positive piece %+v", p)
		}
		if p.ostIdx < 0 || p.ostIdx >= 3 {
			t.Fatalf("bad ost in %+v", p)
		}
		total += p.count
	}
	if total != 60 {
		t.Fatalf("pieces cover %d blocks, want 60", total)
	}
	// First piece: block 10 is in stripe 0 -> OST 0, local 10.
	if pieces[0].ostIdx != 0 || pieces[0].logical != 10 || pieces[0].count != 6 {
		t.Fatalf("pieces[0] = %+v", pieces[0])
	}
	// Next: blocks 16..31 -> stripe 1 -> OST 1, local 0.
	if pieces[1].ostIdx != 1 || pieces[1].logical != 0 || pieces[1].count != 16 {
		t.Fatalf("pieces[1] = %+v", pieces[1])
	}
}

func TestDeleteReleasesSpace(t *testing.T) {
	fs := newMiF(t, 2)
	f, _ := fs.Create(fs.Root(), "tmp", 0)
	stream := core.StreamID{Client: 1, PID: 1}
	if err := f.Write(stream, 0, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(fs.Root(), "tmp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a := fs.OST(i).Allocator()
		if a.FreeBlocks() != a.Total() {
			t.Fatalf("OST %d leaked %d blocks", i, a.Total()-a.FreeBlocks())
		}
	}
	if _, err := fs.Open(fs.Root(), "tmp"); err == nil {
		t.Fatal("deleted file should not open")
	}
}

func TestSharedFilePolicyComparison(t *testing.T) {
	// End-to-end reproduction of the paper's core claim at PFS level:
	// concurrent strided writers fragment the file under reservation but
	// not under on-demand, and the read-back phase shows it.
	run := func(policy PolicyKind) (int, sim.Ns) {
		cfg := MiF(4).WithPolicy(policy)
		cfg.ReservationWindow = 2048
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const procs = 16
		const regionBlocks = 1024
		f, _ := fs.Create(fs.Root(), "shared", procs*regionBlocks)
		for i := int64(0); i < regionBlocks; i += 8 {
			for p := 0; p < procs; p++ {
				stream := core.StreamID{Client: uint32(p / 4), PID: uint32(p % 4)}
				if err := f.Write(stream, int64(p)*regionBlocks+i, 8); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs.Flush()
		extents, err := fs.TotalExtents(f)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 2: sequential segment reads.
		fs.ResetDataStats()
		for p := 0; p < procs; p++ {
			for i := int64(0); i < regionBlocks; i += 16 {
				if err := f.Read(int64(p)*regionBlocks+i, 16); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs.Flush()
		return extents, fs.DataBusyMax()
	}
	extOD, timeOD := run(PolicyOnDemand)
	extRes, timeRes := run(PolicyReservation)
	if extOD*3 > extRes {
		t.Fatalf("on-demand extents %d vs reservation %d: want >= 3x reduction", extOD, extRes)
	}
	if timeRes <= timeOD {
		t.Fatalf("reservation read time %d should exceed on-demand %d", timeRes, timeOD)
	}
}

func TestManyFilesNamespace(t *testing.T) {
	fs := newMiF(t, 2)
	dir, err := fs.Mkdir(fs.Root(), "work")
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := 0; i < 50; i++ {
		f, err := fs.Create(dir, fmt.Sprintf("f%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(stream, 0, 4); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := fs.MDS().ReaddirPlus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("ReaddirPlus = %d records, want 50", len(recs))
	}
	for i := 0; i < 50; i += 5 {
		if err := fs.Delete(dir, fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.MDS().FS().Readdir(dir)
	if len(names) != 40 {
		t.Fatalf("Readdir after deletes = %d names, want 40", len(names))
	}
}

// TestConcurrentClients interleaves eight client streams round-robin through
// one mount, the way the workloads model concurrent clients: on the
// simulated timeline, from one goroutine. The decorated mount (client
// cache, 2-way replication, seeded message loss, a registry and a tracer)
// takes every layer beneath it through the interleaving, export included.
func TestConcurrentClients(t *testing.T) {
	decorated := func() Config {
		cfg := MiF(4)
		ccfg := cache.DefaultConfig()
		ccfg.CapacityBlocks = 256
		ccfg.DirtyHighWater = 64
		cfg.Cache = &ccfg
		rc := replica.DefaultConfig()
		rc.RF = 2
		cfg.Replication = &rc
		faults := rpc.UniformFaults(7, 0.01)
		cfg.RPC = rpc.ClientConfig{Fault: &faults}
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Trace = telemetry.NewTracer(nil)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"MiF4", MiF(4)},
		{"Decorated", decorated()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create(fs.Root(), "conc", 0)
			if err != nil {
				t.Fatal(err)
			}
			const clients, region = 8, 128
			for i := int64(0); i < region; i += 8 {
				for c := 0; c < clients; c++ {
					stream := core.StreamID{Client: uint32(c), PID: 1}
					if err := f.Write(stream, int64(c)*region+i, 8); err != nil {
						t.Fatal(err)
					}
				}
			}
			for c := 0; c < clients; c++ {
				if err := f.Fsync(); err != nil {
					t.Fatal(err)
				}
				if err := f.Read(int64(c)*region, region); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Read(0, clients*region); err != nil {
				t.Fatal(err)
			}
			if reg := tc.cfg.Metrics; reg != nil {
				if err := reg.WriteJSON(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			if tr := tc.cfg.Trace; tr != nil {
				if err := tr.WriteSpanLog(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRangePastCapacityIsRejected: a write or read whose end overflows
// int64, or lies past what the mount's objects can address (OSTs ×
// OST.Blocks), is an error — not a panic in the OST's written-block bitmap,
// nor a bitmap grown in proportion to the offset — and the mount keeps
// working after it.
func TestRangePastCapacityIsRejected(t *testing.T) {
	fs := newMiF(t, 4)
	f, err := fs.Create(fs.Root(), "far", 0)
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(fs.OSTs()) * fs.Config().OST.Blocks
	stream := core.StreamID{Client: 1, PID: 1}
	for _, r := range []struct{ blk, count int64 }{
		{math.MaxInt64, 1},
		{1, math.MaxInt64},
		{capacity, 1},
		{capacity - 4, 8},
		{1 << 50, 8},
	} {
		if err := f.Write(stream, r.blk, r.count); err == nil {
			t.Errorf("Write [%d,+%d) succeeded past %d blocks", r.blk, r.count, capacity)
		}
		if err := f.Read(r.blk, r.count); err == nil {
			t.Errorf("Read [%d,+%d) succeeded past %d blocks", r.blk, r.count, capacity)
		}
	}
	if err := f.Write(stream, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, 64); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCreateUndoesItself declares a file larger than the volume on a
// static-policy mount, unreplicated and 2-way replicated: the fallocate
// runs out of space, and the create must leave nothing behind — no name,
// no objects, no allocated blocks, no replica state — so the same name can
// be created again.
func TestFailedCreateUndoesItself(t *testing.T) {
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("RF%d", rf), func(t *testing.T) {
			cfg := MiF(4).WithPolicy(PolicyStatic)
			if rf > 1 {
				cfg.Replication = &replica.Config{RF: rf}
			}
			fs, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			root := fs.Root()
			if _, err := fs.Create(root, "big", 2*int64(cfg.OSTs)*cfg.OST.Blocks); err == nil {
				t.Fatal("create larger than the volume succeeded")
			}
			if _, err := fs.MDS().FS().Lookup(root, "big"); !errors.Is(err, mdfs.ErrNotExist) {
				t.Fatalf("lookup after failed create: %v, want ErrNotExist", err)
			}
			if report := fs.MDS().FS().Fsck(); !report.Clean() {
				t.Fatalf("MDS fsck after failed create: %v", report)
			}
			for i := 0; i < fs.OSTs(); i++ {
				srv := fs.OST(i)
				if n, used := srv.ObjectCount(), srv.UsedBlocks(); n != 0 || used != 0 {
					t.Fatalf("OST %d keeps %d objects, %d blocks after failed create", i, n, used)
				}
				if rep := srv.CheckConsistency(); !rep.Clean() {
					t.Fatalf("OST %d inconsistent after failed create: %v", i, rep.Problems)
				}
			}
			if rep := fs.Replication(); rep != nil && rep.Components() != 0 {
				t.Fatalf("replica manager keeps %d components after failed create", rep.Components())
			}
			if rf > 1 {
				// The failed create's undo unlinked its name, which drops the
				// MDS replica layout too. A directory reuses its last freed
				// slot first, so a bare metadata create gets that inode back.
				probe, err := fs.MDS().FS().Create(root, "probe")
				if err != nil {
					t.Fatal(err)
				}
				if sets, err := fs.MDS().GetReplicaLayout(probe); err == nil {
					t.Fatalf("failed create left replica layout %v at the MDS", sets)
				}
				if err := fs.MDS().FS().Unlink(root, "probe"); err != nil {
					t.Fatal(err)
				}
			}
			f, err := fs.Create(root, "big", 1024)
			if err != nil {
				t.Fatalf("re-create after failed create: %v", err)
			}
			if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 1024); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailedWriteLeaksNoBlocks is the IO-server ENOSPC leak seen through
// the mount, at RF 1 and RF 2 over the same body: two interleaved writers
// on small volumes, one file deleted, then a write that runs out of space
// partway through its allocation. Deleting what is left must empty every
// server.
func TestFailedWriteLeaksNoBlocks(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyVanilla, PolicyReservation, PolicyOnDemand} {
		for _, rf := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/RF%d", policy, rf), func(t *testing.T) {
				cfg := MiF(2).WithPolicy(policy)
				cfg.OST.Blocks = 4096
				cfg.OST.GroupBlocks = 1024
				cfg.ReservationWindow = 256
				// One stripe unit holds the whole test, so the write that
				// fails reaches its server as a single request.
				cfg.StripeBlocks = 8192
				cfg.Replication = &replica.Config{RF: rf}
				fs, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				root := fs.Root()
				var files [2]*File
				for i, name := range []string{"a", "b"} {
					if files[i], err = fs.Create(root, name, 0); err != nil {
						t.Fatal(err)
					}
				}
				for blk := int64(0); blk < 512; blk += 8 {
					for i, f := range files {
						if err := f.Write(core.StreamID{Client: uint32(i), PID: 1}, blk, 8); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := fs.Delete(root, "a"); err != nil {
					t.Fatal(err)
				}
				err = files[1].Write(core.StreamID{Client: 1, PID: 1}, 512, 4000)
				if !errors.Is(err, alloc.ErrNoSpace) {
					t.Fatalf("oversized write: %v, want ErrNoSpace", err)
				}
				if err := fs.Delete(root, "b"); err != nil {
					t.Fatal(err)
				}
				requireEmpty(t, fs)
			})
		}
	}
}
