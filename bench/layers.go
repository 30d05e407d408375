package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"redbud/internal/mdfs"
)

// spanMetrics derives the host-time metrics from the benchmark's own spans
// around the calls of the traced iteration: the mean self time of one call,
// and the number of calls.
func (h *harness) spanMetrics(m map[string]float64, t *spanTotals) {
	us := func(names ...spanName) float64 { return t.meanNs(names...) / 1e3 }
	m["pfs.new.host_us"] = us(spPfsNew)
	m["pfs.create.host_us"] = us(spPfsCreate)
	m["pfs.write.host_us"] = us(spPfsWrite)
	m["pfs.read.host_us"] = us(spPfsRead)
	m["pfs.fsync.host_us"] = us(spPfsFsync)
	m["pfs.close.host_us"] = us(spPfsClose)
	m["pfs.flush.host_us"] = us(spPfsFlush)
	m["pfs.delete.host_us"] = us(spPfsDelete)
	m["pfs.crash_repair.host_us"] = us(spPfsCrashRepair)
	m["pfs.calls"] = float64(t.layerCalls("pfs."))
	m["mds.new.host_us"] = us(spMdsNew)
	m["mds.create.host_us"] = us(spMdsCreate)
	m["mds.lookup.host_us"] = us(spMdsLookup)
	m["mds.utime.host_us"] = us(spMdsUtime)
	m["mds.readdirplus.host_us"] = us(spMdsReaddirPlus)
	m["mds.unlink.host_us"] = us(spMdsUnlink)
	m["mds.rename.host_us"] = us(spMdsRename)
	m["mds.sync.host_us"] = us(spMdsSync)
	m["mds.calls"] = float64(t.layerCalls("mds."))
	m["mdfs.loadimage.host_ms"] = t.meanNs(spMdfsLoadImage) / 1e6
	m["fsck.workers1.host_ms"] = t.meanNs(spFsckWorkers1) / 1e6
}

// counterMetrics reads what the program itself counted during the traced
// iteration: its registry, and the simulated self time of its spans.
func (h *harness) counterMetrics(m map[string]float64, obs *observer) {
	c := obs.counters()
	f := func(name string) float64 { return float64(c[name]) }
	m["fsck.blocks_scanned"] = f("fsck_blocks_scanned")
	m["fsck.findings"] = f("fsck_problems")
	m["iosched.requests_in"] = f("iosched_submitted")
	m["iosched.merge_ratio"] = ratio(f("iosched_dispatched"), f("iosched_submitted"))
	m["disk.requests"] = f("disk_requests")
	m["disk.positionings"] = f("disk_positionings")
	m["disk.busy_sim_s"] = f("disk_busy_ns") / 1e9
	m["journal.commits"] = f("journal_commits")
	m["journal.checkpoints"] = f("journal_checkpoints")
	m["rpc.calls"] = f("rpc_calls")
	m["rpc.retries"] = f("rpc_retries")
	m["rpc.timeouts"] = f("rpc_timeouts")
	m["rpc.replay_hits"] = f("rpc_replay_hits")
	m["cache.hit_ratio"] = ratio(f("cache_hit_blocks"), f("cache_hit_blocks")+f("cache_miss_blocks"))
	m["cache.writeback_rpcs"] = f("cache_writebacks")
	m["cache.readahead_used_ratio"] = ratio(f("cache_readahead_used_blocks"), f("cache_readahead_issued_blocks"))
	m["cache.evictions"] = f("cache_evicted_blocks")
	m["replica.fanout_writes"] = f("replica_fanout_writes")
	m["replica.failovers"] = f("replica_failovers")
	m["replica.repair_blocks"] = f("replica_repair_blocks")
	m["telemetry.spans"] = float64(obs.spans)
	m["telemetry.spans_dropped"] = float64(obs.dropped)
	for _, layer := range []string{"pfs", "cache", "rpc", "net", "mds", "journal", "ost", "iosched", "disk"} {
		m[layer+".sim_self_s"] = float64(obs.selfNs[layer]) / 1e9
	}
}

// hostMetrics summarises the plain iterations of the traced pass; tracedMs
// is the wall time of the traced one.
func (h *harness) hostMetrics(m map[string]float64, tracedMs float64) {
	walls := h.wallsMs()
	var cpus []float64
	var cycles, pauseNs float64
	for _, s := range h.res.samples {
		cpus = append(cpus, float64(s.cpu)/1e6)
		cycles += float64(s.gcCycles)
		pauseNs += float64(s.gcPauseNs)
	}
	n := float64(len(walls))
	q1, q3 := quartiles(walls)
	m["host.iter_cpu_ms"] = median(cpus)
	m["host.iter_wall_q1_ms"] = q1
	m["host.iter_wall_q3_ms"] = q3
	m["host.warmup_ms"] = float64(h.res.warmup) / 1e6
	m["host.gc_cycles_per_iter"] = cycles / n
	m["host.gc_pause_ms_per_iter"] = pauseNs / n / 1e6
	m["host.trace_overhead_ratio"] = ratio(tracedMs, median(walls))
}

// plainWall times one untraced iteration of w after a collection.
func plainWall(w runner) (time.Duration, *iter) {
	runtime.GC()
	it := &iter{}
	t0 := time.Now()
	w.iterate(it)
	return time.Since(t0), it
}

// ratioRounds is how many times each side of a wall-time ratio runs; the
// ratio is that of the two medians.
const ratioRounds = 3

// mpSlowdown is the multicore fact: the wall time of w's iteration with every
// P the host has, where the default data path fans out over per-OST
// goroutines, over that at one P. The two alternate, after one untimed
// iteration of each, so that neither side is the cold one and the host's
// drift falls on both.
func (h *harness) mpSlowdown(w runner) float64 {
	var one, many []float64
	for n := 0; n <= ratioRounds; n++ {
		d1, it := plainWall(w)
		h.count(it, "mp_slowdown at 1 P")
		runtime.GOMAXPROCS(runtime.NumCPU())
		dn, it := plainWall(w)
		runtime.GOMAXPROCS(1)
		h.count(it, "mp_slowdown at NumCPU Ps")
		if n > 0 {
			one, many = append(one, float64(d1)), append(many, float64(dn))
		}
	}
	return ratio(median(many), median(one))
}

// workloadExtras adds the per-layer metrics that need more than the
// workload's own iterations: each is measured on the workload whose layers
// it concerns and is 0 elsewhere.
func (h *harness) workloadExtras(m map[string]float64) error {
	switch w := h.w.(type) {
	case *dataWorkload:
		switch h.o.workload {
		case "data_shared":
			// The same ops over a quarter of the file.
			m["pfs.mp_slowdown"] = h.mpSlowdown(newDataShared(h.o.seed, h.o.scale/4, false))
		case "data_observed":
			// The observer's price: this workload's plain iterations over
			// as many of the identical op list without registry and tracer,
			// which must leave the simulated counts as they are.
			bare := newDataShared(h.o.seed, h.o.scale, false)
			var walls []float64
			for n := 0; n < ratioRounds; n++ {
				d, it := plainWall(bare)
				h.account(it, "observer_cost_ratio baseline")
				walls = append(walls, float64(d)/1e6)
			}
			m["telemetry.observer_cost_ratio"] = ratio(median(h.wallsMs()), median(walls))
		}
	case *metaWorkload:
		// mdfs's share of the server's calls: the same op list applied to
		// the file system below the server.
		rec := newRecorder()
		it := &iter{rec: rec}
		var g growth
		runtime.GC()
		w.replay(it, &g)
		h.count(it, "mdfs replay")
		var t spanTotals
		t.add(rec.spans)
		m["mdfs.create.host_us"] = t.meanNs(spMdfsCreate) / 1e3
		m["mdfs.utime.host_us"] = t.meanNs(spMdfsUtime) / 1e3
		m["mdfs.readdirplus.host_us"] = t.meanNs(spMdfsReaddirPlus) / 1e3
		m["mdfs.unlink.host_us"] = t.meanNs(spMdfsUnlink) / 1e3
		m["mdfs.sync.host_us"] = t.meanNs(spMdfsSync) / 1e3
		m["mdfs.calls"] = float64(t.layerCalls("mdfs."))
		m["mdfs.create_growth"] = g.ratio()
	case *fsckWorkload:
		// The worker pool on real cores: the same check at NumCPU workers
		// and NumCPU Ps against the serial one of the iterations.
		fs, err := mdfs.LoadImage(bytes.NewReader(w.image))
		if err != nil {
			return fmt.Errorf("fsck_aged: %w", err)
		}
		n := runtime.NumCPU()
		runtime.GC()
		runtime.GOMAXPROCS(n)
		t0 := time.Now()
		rep := fs.FsckWith(mdfs.FsckOptions{Workers: n})
		d := time.Since(t0)
		runtime.GOMAXPROCS(1)
		h.res.attempted++
		if reportText(rep) != w.want {
			h.res.failed++
			h.res.problem("fsck at %d workers: report differs from the serial one", n)
		}
		m["fsck.workersN.host_ms"] = float64(d) / 1e6
		m["fsck.parallel_speedup"] = ratio(m["fsck.workers1.host_ms"], float64(d)/1e6)
	}
	return nil
}
