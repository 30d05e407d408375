package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test compares them) and holds the bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of the untraced pass, the same on every
// workload. The first five are host-clock (what the simulator costs), the
// sim_* four simulated-clock (the model's output), the last the share of
// driver calls and correctness checks that went as expected.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"iter_wall_ms", "ms", lower},
	{"allocs_per_op", "count", lower},
	{"alloc_bytes_per_op", "B", lower},
	{"iter_rss_mb", "MB", lower},
	{"sim_s", "sim_s", lower},
	{"sim_positionings", "count", lower},
	{"sim_disk_requests", "count", lower},
	{"sim_extents", "count", lower},
	{"ok_op_share", "ratio", higher},
}

// endToEndBounds is how much worse (as a share of the parent's median) a
// change's median may be before it counts as a regression. BENCHMARK.json
// carries the same numbers (a test compares them); README.md argues each.
var endToEndBounds = map[string]float64{
	"setup_s":            0.15,
	"iter_wall_ms":       0.15,
	"allocs_per_op":      0.01,
	"alloc_bytes_per_op": 0.06,
	"iter_rss_mb":        0.15,
	"sim_s":              0.03,
	"sim_positionings":   0.035,
	"sim_disk_requests":  0.01,
	"sim_extents":        0.015,
	"ok_op_share":        0.001,
}

// perLayer are the metrics of the traced pass, layer by layer. README.md
// says how each is measured and which end-to-end metric it should move.
var perLayer = []metricDef{
	// pfs: spans around the driver's calls.
	{"pfs.new.host_us", "us", lower},
	{"pfs.create.host_us", "us", lower},
	{"pfs.write.host_us", "us", lower},
	{"pfs.read.host_us", "us", lower},
	{"pfs.fsync.host_us", "us", lower},
	{"pfs.close.host_us", "us", lower},
	{"pfs.flush.host_us", "us", lower},
	{"pfs.delete.host_us", "us", lower},
	{"pfs.crash_repair.host_us", "us", lower},
	{"pfs.calls", "count", lower},
	{"pfs.mp_slowdown", "ratio", lower},
	// mds: spans around mds.Server calls.
	{"mds.new.host_us", "us", lower},
	{"mds.create.host_us", "us", lower},
	{"mds.lookup.host_us", "us", lower},
	{"mds.utime.host_us", "us", lower},
	{"mds.readdirplus.host_us", "us", lower},
	{"mds.unlink.host_us", "us", lower},
	{"mds.rename.host_us", "us", lower},
	{"mds.sync.host_us", "us", lower},
	{"mds.calls", "count", lower},
	// mdfs: the same op list replayed straight onto mdfs.FS.
	{"mdfs.create.host_us", "us", lower},
	{"mdfs.utime.host_us", "us", lower},
	{"mdfs.readdirplus.host_us", "us", lower},
	{"mdfs.unlink.host_us", "us", lower},
	{"mdfs.sync.host_us", "us", lower},
	{"mdfs.calls", "count", lower},
	{"mdfs.loadimage.host_ms", "ms", lower},
	{"mdfs.create_growth", "ratio", lower},
	// fsck
	{"fsck.workers1.host_ms", "ms", lower},
	{"fsck.workersN.host_ms", "ms", lower},
	{"fsck.parallel_speedup", "ratio", higher},
	{"fsck.blocks_scanned", "count", lower},
	{"fsck.findings", "count", lower},
	// ost, iosched, disk, alloc, extent, journal: layer replays and the
	// program's counters.
	{"ost.write.host_us", "us", lower},
	{"ost.read.host_us", "us", lower},
	{"ost.flush.host_us", "us", lower},
	{"ost.extents", "count", lower},
	{"iosched.run.host_ns_per_req", "ns", lower},
	{"iosched.requests_in", "count", lower},
	{"iosched.merge_ratio", "ratio", lower},
	{"disk.access.host_ns", "ns", lower},
	{"disk.requests", "count", lower},
	{"disk.positionings", "count", lower},
	{"disk.busy_sim_s", "sim_s", lower},
	{"alloc.allocnear.host_ns", "ns", lower},
	{"alloc.free.host_ns", "ns", lower},
	{"extent.insert.host_ns", "ns", lower},
	{"extent.appendrange.host_ns", "ns", lower},
	{"extent.merges", "count", higher},
	{"journal.commit.host_us", "us", lower},
	{"journal.commits", "count", lower},
	{"journal.checkpoints", "count", lower},
	// rpc, cache, replica: the program's counters.
	{"rpc.calls", "count", lower},
	{"rpc.retries", "count", lower},
	{"rpc.timeouts", "count", lower},
	{"rpc.replay_hits", "count", lower},
	{"cache.hit_ratio", "ratio", higher},
	{"cache.writeback_rpcs", "count", lower},
	{"cache.readahead_used_ratio", "ratio", higher},
	{"cache.evictions", "count", lower},
	{"replica.fanout_writes", "count", lower},
	{"replica.failovers", "count", lower},
	{"replica.repair_blocks", "count", lower},
	// telemetry: direct replays, and what the program's tracers held.
	{"telemetry.counter_add.host_ns", "ns", lower},
	{"telemetry.hist_observe.host_ns", "ns", lower},
	{"telemetry.span.host_ns", "ns", lower},
	{"telemetry.export.host_ms", "ms", lower},
	{"telemetry.spans", "count", lower},
	{"telemetry.spans_dropped", "count", lower},
	{"telemetry.observer_cost_ratio", "ratio", lower},
	// Simulated self time per layer, from the program's own spans.
	{"pfs.sim_self_s", "sim_s", lower},
	{"cache.sim_self_s", "sim_s", lower},
	{"rpc.sim_self_s", "sim_s", lower},
	{"net.sim_self_s", "sim_s", lower},
	{"mds.sim_self_s", "sim_s", lower},
	{"journal.sim_self_s", "sim_s", lower},
	{"ost.sim_self_s", "sim_s", lower},
	{"iosched.sim_self_s", "sim_s", lower},
	{"disk.sim_self_s", "sim_s", lower},
	// Host CPU by package, from a CPU profile of untraced iterations.
	{"pfs.cpu_share", "ratio", lower},
	{"cache.cpu_share", "ratio", lower},
	{"replica.cpu_share", "ratio", lower},
	{"rpc.cpu_share", "ratio", lower},
	{"mds.cpu_share", "ratio", lower},
	{"mdfs.cpu_share", "ratio", lower},
	{"journal.cpu_share", "ratio", lower},
	{"ost.cpu_share", "ratio", lower},
	{"core.cpu_share", "ratio", lower},
	{"alloc.cpu_share", "ratio", lower},
	{"extent.cpu_share", "ratio", lower},
	{"iosched.cpu_share", "ratio", lower},
	{"disk.cpu_share", "ratio", lower},
	{"telemetry.cpu_share", "ratio", lower},
	{"sim.cpu_share", "ratio", lower},
	{"bench.cpu_share", "ratio", lower},
	{"runtime_gc.cpu_share", "ratio", lower},
	{"runtime_malloc.cpu_share", "ratio", lower},
	// host: spread and garbage-collection context for iter_wall_ms.
	{"host.iter_cpu_ms", "ms", lower},
	{"host.iter_wall_q1_ms", "ms", lower},
	{"host.iter_wall_q3_ms", "ms", lower},
	{"host.warmup_ms", "ms", lower},
	{"host.gc_cycles_per_iter", "count", lower},
	{"host.gc_pause_ms_per_iter", "ms", lower},
	{"host.trace_overhead_ratio", "ratio", lower},
}

// workloadDef names one workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"data_shared", "Paper Fig. 6(a) on the bare default data path pfs-rpc-ost-iosched-disk, where the paper's claim lives; observer, cache and replication are off"},
	{"data_observed", "The identical op list as data_shared with a registry and tracer attached and exported: the difference is the observer's cost"},
	{"data_resilient", "Writes beside reads on the decorated path: client cache, 2-way replication, seeded message loss, an OST crash, repair and read-back"},
	{"meta_bigdir", "Metarates on the normal layout with full 5,000-entry directories, linear and Htree: the dirent-block bookkeeping ROADMAP item 1 targets"},
	{"meta_aged", "The same mdfs, journal and alloc layers through the embedded layout, aged by churn and renames: the bypass for a normal-layout fix"},
	{"fsck_aged", "Loading and checking an aged 512,000-file image: what miffsck check costs a user, and the only memory-heavy workload"},
}
