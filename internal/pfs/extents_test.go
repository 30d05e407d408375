package pfs

import (
	"fmt"
	"testing"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
)

// TestExtentCacheMatchesServers is the extent-count cache's oracle: one
// script over every path that changes an object's extent map — writes,
// reads, fsync, flush, truncate, close, a batch and an online defrag, a
// server crash, revive and repair, a network partition, delete, a crash
// that cuts a write short and the recovery after it, a plain recovery and
// a write that runs out of space — runs on each mount shape the cache must
// survive, and after every op each count the mount would answer without
// asking must equal the booked server's own.
func TestExtentCacheMatchesServers(t *testing.T) {
	// Small volumes let the script's last write run out of space.
	mount := func(policy PolicyKind, rf int) Config {
		cfg := MiF(4).WithPolicy(policy)
		cfg.OST.Blocks = 16384
		cfg.OST.GroupBlocks = 2048
		cfg.Replication = &replica.Config{RF: rf}
		cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
		return cfg
	}
	cached := mount(PolicyOnDemand, 1)
	cached.Cache = &cache.Config{CapacityBlocks: 128, DirtyHighWater: 40}
	// A small buffer threshold makes writes set off flushes of every
	// object the server buffers.
	delalloc := mount(PolicyVanilla, 2)
	delalloc.OST.DelayedAllocation = true
	delalloc.OST.DelayedFlushBlocks = 40

	var moved int64
	for _, tc := range []struct {
		name string
		cfg  Config
		hint int64
	}{
		{"rf1", mount(PolicyVanilla, 1), 0},
		{"rf2", mount(PolicyOnDemand, 2), 0},
		{"cache", cached, 0},
		{"delalloc", delalloc, 0},
		{"static", mount(PolicyStatic, 1), 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Crash = crashsim.Arm(crashsim.PtOstWriteQueue, 12, disk.TearNone, 1)
			moved += runExtentCacheScript(t, tc.cfg, tc.hint)
		})
	}
	if moved == 0 {
		t.Fatal("defrag moved no block: a migration is untested")
	}
}

// runExtentCacheScript drives the oracle's script on a fresh mount of cfg,
// creating its files with the given size hint, and checks the cache after
// every op. With cfg.Crash armed, the write it kills was taken by the
// server but its reply never arrives; the step recovers the mount and
// carries on. It returns the blocks defrag moved.
func runExtentCacheScript(t *testing.T, cfg Config, hint int64) int64 {
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*File, 3)
	checked := 0
	// check runs op, recovers the mount if op crashed it, hands any other
	// error to want, and checks the cache.
	check := func(name string, op func() error, want func(error) bool) {
		t.Helper()
		crash, err := crashsim.Capture(op)
		if crash != nil {
			_, err = fs.CrashRecover()
		}
		if !want(err) {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := fs.CheckExtentCache()
		if err != nil {
			t.Fatalf("after %s: %v", name, err)
		}
		checked += n
	}
	step := func(name string, op func() error) {
		t.Helper()
		check(name, op, func(err error) bool { return err == nil })
	}
	write := func(i int, blk int64) (string, func() error) {
		return fmt.Sprintf("write f%d@%d", i, blk), func() error {
			return files[i].Write(core.StreamID{Client: 1, PID: uint32(i + 1)}, blk, 16)
		}
	}
	writeAll := func(blk int64) {
		for i, f := range files {
			if f != nil {
				step(write(i, blk))
			}
		}
	}

	for i := range files {
		step(fmt.Sprintf("create f%d", i), func() (err error) {
			files[i], err = fs.Create(fs.Root(), fmt.Sprintf("f%d", i), hint)
			return err
		})
	}
	// The namespace is durable before anything can crash.
	step("sync", fs.Sync)
	// Interleaved streams fragment every object.
	for r := int64(0); r < 8; r++ {
		writeAll(r * 16)
	}
	// Each of read, fsync and flush forces the buffers the write before it
	// left on a DelayedAllocation server.
	step(write(0, 128))
	step("read", func() error { return files[0].Read(128, 16) })
	step(write(1, 128))
	step("fsync", files[1].Fsync)
	step(write(2, 128))
	step("flush", func() error { fs.Flush(); return nil })
	step("close", files[0].Close)
	step("defrag run", func() error { _, err := fs.Defrag().Run(); return err })
	writeAll(136)
	step("defrag scan", func() error { fs.Defrag().ScanAndPlan(); return nil })
	for k := 0; k < 4; k++ {
		step("defrag step", func() error { _, err := fs.Defrag().Step(); return err })
		step(write(k%3, 144))
	}
	if fs.Replication() != nil {
		step("crash ost1", func() error { return fs.CrashOST(1) })
		for blk := int64(256); blk < 512; blk += 64 {
			step(write(0, blk)) // one stripe unit of every component
		}
		writeAll(160)
		step("revive ost1", func() error { return fs.ReviveOST(1) })
		step("repair step", func() error { _, err := fs.RepairStep(true); return err })
		step("repair drain", fs.RepairDrain)
		writeAll(168)
		// A partition, unlike a crash, leaves the server and every count
		// it reported alone.
		step("partition ost2", func() error { fs.conn.Crash(ostAddr(2)); return nil })
		writeAll(184)
		step("heal ost2", func() error { fs.conn.Revive(ostAddr(2)); fs.rep.MarkUp(2); return nil })
		// A fresh region of a component the repair reads from: on a
		// DelayedAllocation server the write waits in a buffer that the
		// repair's own requests flush.
		step("flush", func() error { fs.Flush(); return nil })
		step(write(0, 480))
		step("repair drain", fs.RepairDrain)
		writeAll(192)
	}
	step("truncate", func() error { return files[2].Truncate(40) })
	step(write(2, 40))
	step("delete", func() error { files[2] = nil; return fs.Delete(fs.Root(), "f2") })
	step("recover", func() error { _, err := fs.CrashRecover(); return err })
	writeAll(200)
	if !cfg.OST.DelayedAllocation {
		// The server maps what it can before the space runs out, so the
		// failed write still changed the map. (A delayed-allocation server
		// fails at flush time instead, and panics there.)
		check("write past free space", func() error {
			return files[0].Write(core.StreamID{Client: 1, PID: 1}, 256, 4*16384-512)
		}, func(err error) bool { return err != nil })
	}

	if cfg.Crash != nil && cfg.Crash.Fired() == nil {
		t.Fatal("the armed write never crashed: a reply cut short is untested")
	}
	if checked == 0 {
		t.Fatal("no cached count was ever checked")
	}
	return fs.Defrag().Stats().BlocksMoved
}
