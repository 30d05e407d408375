// Package workload implements the benchmark drivers of the paper's
// evaluation: the trace-derived shared-file micro-benchmark (Figure 6),
// IOR2 and BTIO (Figure 7, Table I), Metarates (Figure 8), the file-system
// aging harness (Figure 9), and PostMark plus the kernel-tree application
// mix (Figure 10).
//
// Every driver is deterministic given its seed, issues its requests in an
// explicitly interleaved arrival order (arrival order is what the
// allocation policies react to), and reports results in simulated time
// from the device models.
//
// Every driver but the failover, defrag and crash-sweep benches is split
// in two. A generator, a pure function of the config, draws from the RNG
// and emits the run as a trace.Op list; Apply interprets a list against a
// Target, a bare MDS server or a mount, making for each op the server or
// mount call it stands for, and measures nothing. The driver applies its
// list phase by phase and reads its counters between the calls: the data
// drivers through RunPhases, which times a write phase and a read phase
// the way miftrace replay does; aging applies its churn a step at a time,
// since where the churn stops depends on the device's utilization. The
// lists write and read back in the trace format, so miftrace replays them.
package workload

import (
	"fmt"

	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// threadsPerClient is the writer threads per client node: "the program
// started 4 threads on each client".
const threadsPerClient = 4

// MicroConfig parameterizes the two-phase shared-file micro-benchmark,
// "based on the trace analysis of scientific computing environment [16]":
// phase 1 places a shared file on disk with concurrent writers, phase 2
// splits it into segments that are read back sequentially.
type MicroConfig struct {
	// Clients is the number of client nodes, each running four writer
	// threads.
	Clients int
	// RegionBlocks is the extent of each stream's private region of the
	// shared file, in blocks.
	RegionBlocks int64
	// RequestBlocks is the write request size in blocks.
	RequestBlocks int64
	// Segments is the number of read segments in phase 2 (1024 in the
	// paper).
	Segments int
	// ReadRequestBlocks is the read request size in blocks.
	ReadRequestBlocks int64
}

// DefaultMicroConfig returns the Figure 6(a) shape at a laptop-scale file
// size. The shared file's total size is fixed; more streams mean finer
// interleaving of the same file, exactly the paper's sweep.
func DefaultMicroConfig(clients int) MicroConfig {
	streams := clients * threadsPerClient
	const totalBlocks = 65536 // 256 MiB shared file
	region := int64(totalBlocks / streams)
	if region < 1 {
		region = 1
	}
	return MicroConfig{
		Clients:           clients,
		RegionBlocks:      region,
		RequestBlocks:     4, // 16 KiB requests
		Segments:          1024,
		ReadRequestBlocks: 16,
	}
}

// MicroResult reports one micro-benchmark run.
type MicroResult struct {
	Config        string
	Streams       int
	FileBlocks    int64
	WriteMBps     float64
	ReadMBps      float64
	Extents       int
	Positionings  int64
	WriteElapsed  sim.Ns
	ReadElapsed   sim.Ns
	MDSCPUPercent float64
}

// RunMicro executes the micro-benchmark against a fresh mount of cfg.
func RunMicro(fsCfg pfs.Config, cfg MicroConfig) (MicroResult, error) {
	if cfg.Clients <= 0 || cfg.RegionBlocks <= 0 || cfg.RequestBlocks <= 0 || cfg.Segments <= 0 {
		return MicroResult{}, fmt.Errorf("workload: bad micro config %+v", cfg)
	}
	ops, cut := microOps(cfg)
	return micro(fsCfg, cfg, ops, cut)
}

// micro applies a micro-benchmark list to a fresh mount of fsCfg and
// measures it.
func micro(fsCfg pfs.Config, cfg MicroConfig, ops []trace.Op, cut int) (MicroResult, error) {
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return MicroResult{}, err
	}
	p, err := RunPhases(MountTarget(fs), ops, cut, len(ops)-1, false)
	if err != nil {
		return MicroResult{}, err
	}
	streams := cfg.Clients * threadsPerClient
	fileBytes := int64(streams) * cfg.RegionBlocks * fsCfg.OST.Disk.BlockSize
	return MicroResult{
		Config:        fsCfg.Name,
		Streams:       streams,
		FileBlocks:    int64(streams) * cfg.RegionBlocks,
		WriteMBps:     sim.MBps(fileBytes, p.WriteNs),
		ReadMBps:      sim.MBps(fileBytes, p.ReadNs),
		Extents:       p.Extents,
		Positionings:  p.Stats.Positionings,
		WriteElapsed:  p.WriteNs,
		ReadElapsed:   p.ReadNs,
		MDSCPUPercent: fs.MDS().CPUUtilization(p.WriteNs+p.ReadNs) * 100,
	}, nil
}

// microOps generates a micro-benchmark run: the shared file's create, the
// write phase, which ends at cut, the read phase and the close.
//
// Phase 1: every stream extends its region; requests from different
// streams arrive round-robin, the worst-case interleaving the paper's
// Figure 1(a) illustrates — trace.Generate's shared pattern.
//
// Phase 2: "the shared file was split into 1024 segments and each one was
// sequentially read/written by a thread in cluster" — the segment readers
// run concurrently, so their requests arrive with cluster skew, not in
// global file order.
func microOps(cfg MicroConfig) (ops []trace.Op, cut int) {
	streams := cfg.Clients * threadsPerClient
	fileBlocks := int64(streams) * cfg.RegionBlocks
	writes, _ := trace.Generate(trace.GenConfig{Pattern: "shared", Streams: streams,
		RegionBlocks: cfg.RegionBlocks, RequestBlocks: cfg.RequestBlocks})
	segBlocks := max(fileBlocks/int64(cfg.Segments), 1)
	reqBlocks := cfg.ReadRequestBlocks
	if reqBlocks < 1 || reqBlocks > segBlocks {
		reqBlocks = segBlocks
	}
	segments := int(fileBlocks / segBlocks)
	reqsPerSeg := (segBlocks + reqBlocks - 1) / reqBlocks
	ops = make([]trace.Op, 0, len(writes)+segments*int(reqsPerSeg)+2)
	ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "shared.odb", Count: fileBlocks})
	ops = append(ops, writes...)
	cut = len(ops)
	rng := sim.NewRand(uint64(streams)*31 + uint64(fileBlocks))
	jitteredArrival(rng, segments, reqsPerSeg, func(seg int, idx int64) {
		off := idx * reqBlocks
		ops = append(ops, trace.Op{Kind: trace.OpRead, Blk: int64(seg)*segBlocks + off, Count: min(reqBlocks, segBlocks-off)})
	})
	return append(ops, trace.Op{Kind: trace.OpClose}), cut
}
