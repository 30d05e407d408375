package main

import (
	"fmt"
	"io"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/disk"
	"redbud/internal/extent"
	"redbud/internal/iosched"
	"redbud/internal/journal"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Layer replays: seeded inputs applied straight to one layer's public
// functions, below the top-level API, so that a layer's own cost is known
// apart from its callers'. They do not depend on the workload; every traced
// run makes them. Each returns its metrics by per-layer name; sink keeps
// results the compiler could otherwise discard.
var sink int64

// perCall returns the mean host nanoseconds of n calls started at t0.
func perCall(t0 time.Time, n int) float64 { return float64(time.Since(t0)) / float64(n) }

// replayOST drives one IO server the way a data_shared cell drives five:
// 64 interleaved streams extend their regions of one object under the
// on-demand policy, then the object is read back sequentially.
func replayOST(seed uint64, scale float64, out map[string]float64) error {
	const streams, writeBlocks, readBlocks = 64, 4, 16
	rng := newRNG(seed)
	region := scaled(1024, scale, 16) / writeBlocks * writeBlocks
	srv := ost.NewServer(0, ost.DefaultConfig())
	od := core.DefaultOnDemandConfig()
	factory := func(src core.BlockSource, _ int64) core.Policy { return core.NewOnDemand(src, od) }
	if err := srv.CreateObject(1, factory, 0); err != nil {
		return err
	}
	order := make([]int, streams)
	writes := 0
	var writeNs, flushNs time.Duration
	for off := int64(0); off < region; off += writeBlocks {
		rng.perm(order)
		t0 := time.Now()
		for _, s := range order {
			id := core.StreamID{Client: uint32(s / 4), PID: uint32(s % 4)}
			if err := srv.Write(1, id, int64(s)*region+off, writeBlocks); err != nil {
				return err
			}
		}
		writeNs += time.Since(t0)
		writes += streams
	}
	t0 := time.Now()
	srv.Flush()
	flushNs += time.Since(t0)

	total := int64(streams) * region
	reads := 0
	t0 = time.Now()
	for blk := int64(0); blk < total; blk += readBlocks {
		if err := srv.Read(1, blk, readBlocks); err != nil {
			return err
		}
		reads++
	}
	readNs := time.Since(t0)
	t0 = time.Now()
	srv.Flush()
	flushNs += time.Since(t0)

	n, err := srv.ExtentCount(1)
	if err != nil {
		return err
	}
	if rep := srv.CheckConsistency(); !rep.Clean() {
		return fmt.Errorf("ost replay: %v", rep.Problems)
	}
	out["ost.write.host_us"] = float64(writeNs) / float64(writes) / 1e3
	out["ost.read.host_us"] = float64(readNs) / float64(reads) / 1e3
	out["ost.flush.host_us"] = float64(flushNs) / 2 / 1e3
	out["ost.extents"] = float64(n)
	return nil
}

// replayIOSched runs the elevator over seeded batches: runs of adjacent
// requests (which merge) scattered over the device (which sort).
func replayIOSched(seed uint64, scale float64, out map[string]float64) {
	const batchSize = 512
	batches := int(scaled(200, scale, 4))
	rng := newRNG(seed)
	d := disk.New(disk.DefaultConfig(), 1<<20)
	e := iosched.NewElevator(0)
	reqs := make([]iosched.Request, 0, batchSize)
	var total time.Duration
	for b := 0; b < batches; b++ {
		reqs = reqs[:0]
		for len(reqs) < batchSize {
			start := int64(rng.intn(1<<20 - 64))
			for run := 1 + rng.intn(4); run > 0 && len(reqs) < batchSize; run-- {
				reqs = append(reqs, iosched.Request{Start: start, Count: 8, Write: b%2 == 0})
				start += 8
			}
		}
		t0 := time.Now()
		sink += e.Run(d, reqs)
		total += time.Since(t0)
	}
	out["iosched.run.host_ns_per_req"] = float64(total) / float64(batches*batchSize)
}

// replayDisk services seeded requests on the disk model, a third of them
// sequential to the previous one.
func replayDisk(seed uint64, scale float64, out map[string]float64) {
	n := int(scaled(400_000, scale, 1000))
	rng := newRNG(seed)
	d := disk.New(disk.DefaultConfig(), 1<<20)
	starts := make([]int64, n)
	next := int64(0)
	for i := range starts {
		if rng.intn(3) != 0 || next+16 > 1<<20 {
			next = int64(rng.intn(1<<20 - 16))
		}
		starts[i] = next
		next += 16
	}
	t0 := time.Now()
	for i, s := range starts {
		sink += d.Access(s, 16, i%2 == 0)
	}
	out["disk.access.host_ns"] = perCall(t0, n)
}

// replayAlloc allocates seeded runs near seeded goals, then frees them.
func replayAlloc(seed uint64, scale float64, out map[string]float64) error {
	n := int(scaled(100_000, scale, 1000))
	rng := newRNG(seed)
	a := alloc.New(1<<22, 32768)
	got := make([]alloc.Range, 0, n)
	goals := make([]int64, n)
	wants := make([]int64, n)
	for i := range goals {
		goals[i] = int64(rng.intn(1 << 22))
		wants[i] = int64(1 + rng.intn(16))
	}
	t0 := time.Now()
	for i := range goals {
		start, count, err := a.AllocNear(0, goals[i], wants[i])
		if err != nil {
			return fmt.Errorf("alloc replay: %w", err)
		}
		got = append(got, alloc.Range{Start: start, Count: count})
	}
	out["alloc.allocnear.host_ns"] = perCall(t0, n)
	t0 = time.Now()
	for _, r := range got {
		if err := a.Free(r); err != nil {
			return fmt.Errorf("alloc replay: %w", err)
		}
	}
	out["alloc.free.host_ns"] = perCall(t0, n)
	return nil
}

// replayExtent fills an extent map the way interleaved streams do: each
// stream's next extent follows its previous one logically, and half the
// time physically too (those merge). Then it resolves seeded ranges.
func replayExtent(seed uint64, scale float64, out map[string]float64) error {
	const streams = 64
	perStream := int(scaled(500, scale, 20))
	rng := newRNG(seed)
	var m extent.Map
	region := int64(perStream) * 4
	// Every stream owns a physical region twice its logical one, so a
	// skipped gap never collides with another stream.
	last := make([]int64, streams) // physical end of each stream's last extent
	for s := range last {
		last[s] = int64(s) * region * 2
	}
	order := make([]int, streams)
	inserts := make([]extent.Extent, 0, streams*perStream)
	for k := 0; k < perStream; k++ {
		rng.perm(order)
		for _, s := range order {
			e := extent.Extent{Logical: int64(s)*region + int64(k)*4, Physical: last[s], Count: 4}
			if rng.intn(2) == 0 {
				e.Physical += 4 // a gap: no physical contiguity, no merge
			}
			last[s] = e.Physical + 4
			inserts = append(inserts, e)
		}
	}
	t0 := time.Now()
	for _, e := range inserts {
		if err := m.Insert(e); err != nil {
			return fmt.Errorf("extent replay: %w", err)
		}
	}
	out["extent.insert.host_ns"] = perCall(t0, len(inserts))
	_, merges := m.Ops()
	out["extent.merges"] = float64(merges)

	lookups := len(inserts)
	var scratch []extent.Extent
	total := int64(streams) * region
	at := make([]int64, lookups)
	for i := range at {
		at[i] = int64(rng.intn(int(total - 16)))
	}
	t0 = time.Now()
	for _, l := range at {
		scratch = m.AppendRange(scratch[:0], l, 16)
		sink += int64(len(scratch))
	}
	out["extent.appendrange.host_ns"] = perCall(t0, lookups)
	return nil
}

// replayJournal commits seeded transactions into a small region, so that
// checkpoints are part of the cost, as they are on the metadata server.
func replayJournal(seed uint64, scale float64, out map[string]float64) error {
	n := int(scaled(20_000, scale, 200))
	rng := newRNG(seed)
	d := disk.New(disk.DefaultConfig(), 1<<19)
	j := journal.New(d, 1, 1024, func(recs []journal.Record) sim.Ns {
		var cost sim.Ns
		for _, r := range recs {
			cost += d.Access(r.Block, 1, true)
		}
		return cost
	})
	block := make([]byte, 4096)
	recs := make([]journal.Record, 4)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for k := range recs {
			recs[k] = journal.Record{Block: 2048 + int64(rng.intn(1<<18)), Data: block}
		}
		cost, err := j.Commit(recs)
		if err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
		sink += cost
	}
	out["journal.commit.host_us"] = perCall(t0, n) / 1e3
	return nil
}

// replayTelemetry prices the observer's primitives, and the export of a
// registry the size a data mount publishes.
func replayTelemetry(scale float64, out map[string]float64) error {
	n := int(scaled(1_000_000, scale, 10_000))
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_counter", telemetry.Labels{"layer": "bench"})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Add(1)
	}
	out["telemetry.counter_add.host_ns"] = perCall(t0, n)

	h := reg.Histogram("bench_hist", telemetry.Labels{"layer": "bench"})
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	out["telemetry.hist_observe.host_ns"] = perCall(t0, n)

	spans := n / 5
	tr := telemetry.NewTracer(nil)
	t0 = time.Now()
	for i := 0; i < spans; i++ {
		sp := tr.Start("bench", "op", 0)
		tr.Advance(10)
		sp.End()
	}
	out["telemetry.span.host_ns"] = perCall(t0, spans)

	for i := 0; i < 200; i++ {
		l := telemetry.Labels{"layer": "bench", "i": fmt.Sprint(i)}
		reg.Counter("bench_many", l).Add(int64(i))
		reg.Histogram("bench_many_ns", l).Observe(int64(i))
	}
	const exports = 20
	t0 = time.Now()
	for i := 0; i < exports; i++ {
		if err := reg.WriteJSON(io.Discard); err != nil {
			return fmt.Errorf("telemetry replay: %w", err)
		}
	}
	out["telemetry.export.host_ms"] = perCall(t0, exports) / 1e6
	return nil
}

// layerReplays runs every workload-independent replay.
func layerReplays(seed uint64, scale float64, out map[string]float64) error {
	if err := replayOST(seed, scale, out); err != nil {
		return err
	}
	replayIOSched(seed, scale, out)
	replayDisk(seed, scale, out)
	if err := replayAlloc(seed, scale, out); err != nil {
		return err
	}
	if err := replayExtent(seed, scale, out); err != nil {
		return err
	}
	if err := replayJournal(seed, scale, out); err != nil {
		return err
	}
	return replayTelemetry(scale, out)
}
