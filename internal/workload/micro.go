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
// The metadata drivers — Metarates, aging, PostMark and the kernel tree —
// are split in two. A generator, a pure function of the config, draws from
// the RNG and emits the run as a trace.Op list; Apply interprets a list
// against a Target, a bare MDS server or a mount, making for each op the
// server or mount call it stands for, and measures nothing. The driver
// applies its list phase by phase and reads its counters between the
// calls; aging applies its churn a step at a time, since where the churn
// stops depends on the device's utilization. The lists write and read
// back in the trace format, so miftrace replays them. The data-path
// drivers still drive pfs themselves.
package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
)

// MicroConfig parameterizes the two-phase shared-file micro-benchmark,
// "based on the trace analysis of scientific computing environment [16]":
// phase 1 places a shared file on disk with concurrent writers, phase 2
// splits it into segments that are read back sequentially.
type MicroConfig struct {
	// Clients is the number of client nodes; each runs ThreadsPerClient
	// writer threads ("the program started 4 threads on each client").
	Clients          int
	ThreadsPerClient int
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
	streams := clients * 4
	const totalBlocks = 65536 // 256 MiB shared file
	region := int64(totalBlocks / streams)
	if region < 1 {
		region = 1
	}
	return MicroConfig{
		Clients:           clients,
		ThreadsPerClient:  4,
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
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return MicroResult{}, err
	}
	streams := cfg.Clients * cfg.ThreadsPerClient
	if streams == 0 || cfg.RegionBlocks <= 0 || cfg.RequestBlocks <= 0 {
		return MicroResult{}, fmt.Errorf("workload: bad micro config %+v", cfg)
	}
	fileBlocks := int64(streams) * cfg.RegionBlocks
	f, err := fs.Create(fs.Root(), "shared.odb", fileBlocks)
	if err != nil {
		return MicroResult{}, err
	}

	// Phase 1: every stream extends its region; requests from different
	// streams arrive round-robin, the worst-case interleaving the paper's
	// Figure 1(a) illustrates.
	ids := make([]core.StreamID, streams)
	for i := range ids {
		ids[i] = core.StreamID{Client: uint32(i / cfg.ThreadsPerClient), PID: uint32(i % cfg.ThreadsPerClient)}
	}
	for off := int64(0); off < cfg.RegionBlocks; off += cfg.RequestBlocks {
		n := cfg.RequestBlocks
		if off+n > cfg.RegionBlocks {
			n = cfg.RegionBlocks - off
		}
		for s := 0; s < streams; s++ {
			blk := int64(s)*cfg.RegionBlocks + off
			if err := f.Write(ids[s], blk, n); err != nil {
				return MicroResult{}, err
			}
		}
	}
	fs.Flush()
	writeElapsed := fs.DataBusyMax()
	extents, err := fs.TotalExtents(f)
	if err != nil {
		return MicroResult{}, err
	}

	// Phase 2: "the shared file was split into 1024 segments and each
	// one was sequentially read/written by a thread in cluster" — the
	// segment readers run concurrently, so their requests arrive with
	// cluster skew, not in global file order.
	fs.ResetDataStats()
	segBlocks := fileBlocks / int64(cfg.Segments)
	if segBlocks < 1 {
		segBlocks = 1
	}
	reqBlocks := cfg.ReadRequestBlocks
	if reqBlocks < 1 || reqBlocks > segBlocks {
		reqBlocks = segBlocks
	}
	segments := int(fileBlocks / segBlocks)
	reqsPerSeg := (segBlocks + reqBlocks - 1) / reqBlocks
	rng := sim.NewRand(uint64(streams)*31 + uint64(fileBlocks))
	err = jitteredArrival(rng, segments,
		func(int) int64 { return reqsPerSeg },
		func(seg int, idx int64) error {
			base := int64(seg) * segBlocks
			off := idx * reqBlocks
			n := reqBlocks
			if off+n > segBlocks {
				n = segBlocks - off
			}
			return f.Read(base+off, n)
		})
	if err != nil {
		return MicroResult{}, err
	}
	fs.Flush()
	readElapsed := fs.DataBusyMax()
	dataStats := fs.DataStats()
	if err := f.Close(); err != nil {
		return MicroResult{}, err
	}

	blockBytes := fsCfg.OST.Disk.BlockSize
	return MicroResult{
		Config:        fsCfg.Name,
		Streams:       streams,
		FileBlocks:    fileBlocks,
		WriteMBps:     sim.MBps(fileBlocks*blockBytes, writeElapsed),
		ReadMBps:      sim.MBps(fileBlocks*blockBytes, readElapsed),
		Extents:       extents,
		Positionings:  dataStats.Positionings,
		WriteElapsed:  writeElapsed,
		ReadElapsed:   readElapsed,
		MDSCPUPercent: fs.MDS().CPUUtilization(writeElapsed+readElapsed) * 100,
	}, nil
}
