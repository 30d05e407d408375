package pfs

import (
	"bytes"
	"strings"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/replica"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// cachedConfig returns a MiF mount with the client cache enabled.
func cachedConfig(t *testing.T, ccfg cache.Config) *FS {
	t.Helper()
	cfg := MiF(3)
	cfg.Cache = &ccfg
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// storedBlocks sums the blocks the IO servers actually hold for h.
func storedBlocks(t *testing.T, fs *FS, h *File) int64 {
	t.Helper()
	var total int64
	for i := range fs.ostc {
		exts, err := fs.ostc[i].Extents(h.f.objects[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exts {
			total += e.Count
		}
	}
	return total
}

// rpcValue sums one rpc-layer counter across label sets containing part.
func rpcValue(reg *telemetry.Registry, name, part string) int64 {
	var total int64
	for _, s := range reg.Snapshot() {
		if s.Name == name && (part == "" || strings.Contains(s.Labels, part)) {
			total += s.Value
		}
	}
	return total
}

// TestCacheOffByDefault: a mount without Config.Cache carries a cache of
// capacity 0 that holds nothing — every write reaches the servers before it
// returns — and that counts and publishes nothing.
func TestCacheOffByDefault(t *testing.T) {
	for _, cfg := range []Config{MiF(3), RedbudOrig(3), LustreLike(3)} {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fs.Cache().Config(); got != (cache.Config{}) {
			t.Fatalf("%s: default cache config = %+v, want capacity 0", cfg.Name, got)
		}
		h, err := fs.Create(fs.Root(), "off.dat", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 16; i++ {
			if err := h.Write(core.StreamID{Client: 1, PID: 1}, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		if got := storedBlocks(t, fs, h); got < 16 {
			t.Fatalf("%s: before any barrier the servers hold %d blocks, want all 16 written through", cfg.Name, got)
		}
		if err := h.Read(0, 16); err != nil {
			t.Fatal(err)
		}
		if err := h.Fsync(); err != nil {
			t.Fatal(err)
		}
		if st := fs.Cache().Stats(); st != (cache.Stats{}) {
			t.Fatalf("%s: capacity-0 cache stats = %+v, want zero", cfg.Name, st)
		}
		for _, m := range reg.Snapshot() {
			if strings.Contains(m.Labels, "layer=cache") {
				t.Fatalf("%s: capacity-0 cache published %s{%s}", cfg.Name, m.Name, m.Labels)
			}
		}
	}
}

// TestZeroCapacityCacheIsByteIdentical is the identity guard of the one
// cache path: over every policy and replication factor, a mount given a
// capacity-0 cache config runs the data-path script (and a Sync) with
// exactly the registry document — metrics and events — and simulated clock
// of a mount given none.
func TestZeroCapacityCacheIsByteIdentical(t *testing.T) {
	run := func(policy PolicyKind, rc *replica.Config, cc *cache.Config) ([]byte, sim.Ns) {
		cfg := MiF(4).WithPolicy(policy)
		cfg.Replication = rc
		cfg.Cache = cc
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(nil)
		cfg.Metrics = reg
		cfg.Trace = tr
		fs, _ := runDataPathScript(t, cfg)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := reg.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Bytes(), tr.Now()
	}
	for _, policy := range []PolicyKind{PolicyVanilla, PolicyReservation, PolicyOnDemand, PolicyStatic} {
		for _, rc := range []*replica.Config{nil, {RF: 2}, {RF: 3}} {
			offDoc, offNow := run(policy, rc, nil)
			zeroDoc, zeroNow := run(policy, rc, &cache.Config{})
			if offNow != zeroNow {
				t.Fatalf("%v/%+v: simulated clocks diverged: %d vs %d ns", policy, rc, offNow, zeroNow)
			}
			if !bytes.Equal(offDoc, zeroDoc) {
				t.Fatalf("%v/%+v: capacity-0 telemetry diverged from the mount without a cache config:\n%s\nvs\n%s",
					policy, rc, offDoc, zeroDoc)
			}
		}
	}
}

// TestCacheReadYourWritesProperty drives a seeded random mix of writes and
// reads through a cached mount: every read of previously written data must
// succeed (served from cache or refetched after eviction), and after the
// Sync barrier the servers must hold exactly the union of what was written.
// The mount runs the vanilla policy so the mapped-block count is an exact
// oracle — preallocating policies promote window blocks into the extent
// map beyond what was written.
func TestCacheReadYourWritesProperty(t *testing.T) {
	cfg := MiF(3).WithPolicy(PolicyVanilla)
	cfg.Cache = &cache.Config{CapacityBlocks: 128, DirtyHighWater: 32}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create(fs.Root(), "rw.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(42)
	stream := core.StreamID{Client: 1, PID: 1}
	var written alloc.RangeSet
	for op := 0; op < 400; op++ {
		switch {
		case written.Blocks() == 0 || rng.Int63n(2) == 0:
			r := alloc.Range{Start: rng.Int63n(1024), Count: 1 + rng.Int63n(16)}
			if err := h.Write(stream, r.Start, r.Count); err != nil {
				t.Fatalf("op %d: write %+v: %v", op, r, err)
			}
			written.Add(r)
		default:
			// Read a random sub-range of one known-written range.
			ranges := written.Ranges()
			r := ranges[rng.Int63n(int64(len(ranges)))]
			off := rng.Int63n(r.Count)
			n := 1 + rng.Int63n(r.Count-off)
			if err := h.Read(r.Start+off, n); err != nil {
				t.Fatalf("op %d: read [%d,+%d) of written data: %v", op, r.Start+off, n, err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Cache().Stats().DirtyBlocks; got != 0 {
		t.Fatalf("dirty after Sync = %d, want 0", got)
	}
	if got, want := storedBlocks(t, fs, h), written.Blocks(); got != want {
		t.Fatalf("servers hold %d blocks, want the written union %d", got, want)
	}
}

// TestCacheFlushBarriers verifies writes are absorbed client-side until a
// barrier — Fsync here, Close below — forces them to the servers.
func TestCacheFlushBarriers(t *testing.T) {
	fs := cachedConfig(t, cache.DefaultConfig())
	h, err := fs.Create(fs.Root(), "bar.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 32; i++ {
		if err := h.Write(stream, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := storedBlocks(t, fs, h); got != 0 {
		t.Fatalf("before any barrier the servers hold %d blocks, want 0 (writes absorbed)", got)
	}
	if err := h.Fsync(); err != nil {
		t.Fatal(err)
	}
	if got := storedBlocks(t, fs, h); got != 32 {
		t.Fatalf("after Fsync the servers hold %d blocks, want 32", got)
	}

	// Close is a barrier too: new dirty data lands before the layout
	// summary is recorded.
	if err := h.Write(stream, 100, 8); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := storedBlocks(t, fs, h); got != 40 {
		t.Fatalf("after Close the servers hold %d blocks, want 40", got)
	}
	if got := fs.Cache().Stats().DirtyBlocks; got != 0 {
		t.Fatalf("dirty after barriers = %d, want 0", got)
	}
}

// TestCacheTruncateBarrier: the truncate barrier flushes first, then the
// cache drops the now-stale tail so it can neither hit nor write back.
func TestCacheTruncateBarrier(t *testing.T) {
	fs := cachedConfig(t, cache.DefaultConfig())
	h, err := fs.Create(fs.Root(), "trunc.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	if err := h.Write(stream, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := h.Truncate(16); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := storedBlocks(t, fs, h); got != 16 {
		t.Fatalf("after truncate the servers hold %d blocks, want 16", got)
	}
}

// TestCacheDeleteDropsState: delete flushes, removes the objects, and the
// cache forgets the file.
func TestCacheDeleteDropsState(t *testing.T) {
	fs := cachedConfig(t, cache.DefaultConfig())
	h, err := fs.Create(fs.Root(), "del.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write(core.StreamID{Client: 1, PID: 1}, 0, 32); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(fs.Root(), "del.dat"); err != nil {
		t.Fatal(err)
	}
	s := fs.Cache().Stats()
	if s.CachedBlocks != 0 || s.DirtyBlocks != 0 {
		t.Fatalf("after delete: cached=%d dirty=%d, want 0/0", s.CachedBlocks, s.DirtyBlocks)
	}
}

// TestCacheEvictionUnderPressureRefetches squeezes a working set through a
// tiny cache: evicted blocks must transparently refetch from the servers.
func TestCacheEvictionUnderPressureRefetches(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := MiF(3)
	cfg.Cache = &cache.Config{CapacityBlocks: 8, DirtyHighWater: 8, ReadAheadBlocks: -1}
	cfg.Metrics = reg
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create(fs.Root(), "evict.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write(core.StreamID{Client: 1, PID: 1}, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := h.Fsync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Cache().Stats().EvictedBlocks; got < 56 {
		t.Fatalf("EvictedBlocks = %d, want >= 56 under an 8-block capacity", got)
	}
	before := rpcValue(reg, "rpc_calls", "op=obj-read")
	// Every block reads back correctly even though most were evicted.
	for blk := int64(0); blk < 64; blk += 8 {
		if err := h.Read(blk, 8); err != nil {
			t.Fatalf("read [%d,+8) after eviction: %v", blk, err)
		}
	}
	if after := rpcValue(reg, "rpc_calls", "op=obj-read"); after <= before {
		t.Fatalf("evicted blocks must refetch over RPC (obj-read %d -> %d)", before, after)
	}
}

// TestCacheCoalescingReducesWriteRPCs compares the same small-sequential
// workload on a cached and an uncached mount: write-back aggregation must
// cut the data-write RPC count by at least 2x.
func TestCacheCoalescingReducesWriteRPCs(t *testing.T) {
	run := func(withCache bool) int64 {
		reg := telemetry.NewRegistry()
		cfg := MiF(3)
		cfg.Metrics = reg
		if withCache {
			ccfg := cache.DefaultConfig()
			cfg.Cache = &ccfg
		}
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := fs.Create(fs.Root(), "seq.dat", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 256; i++ {
			if err := h.Write(core.StreamID{Client: 1, PID: 1}, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Fsync(); err != nil {
			t.Fatal(err)
		}
		return rpcValue(reg, "rpc_calls", "op=obj-write")
	}
	uncached, cached := run(false), run(true)
	if cached*2 > uncached {
		t.Fatalf("obj-write RPCs: cached %d vs uncached %d, want at least 2x reduction", cached, uncached)
	}
}

// TestCacheConcurrencyHammer interleaves eight seeded per-file
// read/write/fsync streams round-robin over one shared cached mount: every
// op must succeed (reads may hit holes) and a mount-wide Sync must leave
// nothing dirty.
func TestCacheConcurrencyHammer(t *testing.T) {
	fs := cachedConfig(t, cache.Config{CapacityBlocks: 64, DirtyHighWater: 16})
	const workers = 8
	files := make([]*File, workers)
	for i := range files {
		h, err := fs.Create(fs.Root(), "hammer"+string(rune('a'+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = h
	}
	rngs := make([]*sim.Rand, workers)
	for w := range rngs {
		rngs[w] = sim.NewRand(uint64(1000 + w))
	}
	for op := 0; op < 200; op++ {
		for w, h := range files {
			blk := rngs[w].Int63n(256)
			n := 1 + rngs[w].Int63n(8)
			switch op % 5 {
			case 4:
				if err := h.Fsync(); err != nil {
					t.Fatal(err)
				}
			case 3:
				// Reads may hit unwritten holes; only transport failures
				// are fatal, and the fault-free stack has none — treat
				// hole errors as expected.
				_ = h.Read(blk, n)
			default:
				if err := h.Write(core.StreamID{Client: uint32(w), PID: 1}, blk, n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Cache().Stats().DirtyBlocks; got != 0 {
		t.Fatalf("dirty after hammer+Sync = %d, want 0", got)
	}
}
