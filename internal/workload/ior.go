package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// IORConfig parameterizes the IOR2 macro-benchmark in shared mode:
// "basically it writes a large amount of data to one file and then reads
// them back to verify the correctness of the data; each of the m MPI
// processes is responsible to read or write 1/m of a file".
type IORConfig struct {
	// Procs is the MPI process count (16 nodes × 4 cores in the paper).
	Procs int
	// BlocksPerProc is each rank's share of the shared file in blocks.
	BlocksPerProc int64
	// RequestBlocks is the transfer size in blocks (the paper notes
	// 32K–64K request sizes; 32 KiB = 8 blocks).
	RequestBlocks int64
	// Collective aggregates each round's requests into large contiguous
	// transfers, the MPI-IO two-phase collective buffering whose
	// "size of collective-I/O requests is around 40MB".
	Collective bool
	// CollectiveChunkBlocks is the aggregated transfer size.
	CollectiveChunkBlocks int64
	// Interference adds a concurrently appended side file (a log or a
	// second job's output). Without reservation nothing stops its
	// blocks from landing inside the shared file's tail region — the
	// inter-file fragmentation that separates the Vanilla and
	// Reservation rows of Table I ("since no other inode is allowed to
	// allocate blocks in the reservation range, it mitigates the
	// inter-file fragmentation").
	Interference bool
}

// DefaultIORConfig returns the Figure 7 IOR shape at laptop scale.
func DefaultIORConfig(procs int) IORConfig {
	return IORConfig{
		Procs:                 procs,
		BlocksPerProc:         2048, // 8 MiB per rank
		RequestBlocks:         8,    // 32 KiB transfers
		CollectiveChunkBlocks: 2048,
	}
}

// MacroResult reports one macro-benchmark run (IOR or BTIO).
type MacroResult struct {
	Config       string
	App          string
	Collective   bool
	WriteMBps    float64
	ReadMBps     float64
	Throughput   float64 // combined write+read MB/s
	Extents      int     // Table I "Seg Counts"
	MDSCPU       float64 // Table I CPU utilization, percent
	Positionings int64
}

// RunIOR executes IOR against a fresh mount of cfg.
func RunIOR(fsCfg pfs.Config, cfg IORConfig) (MacroResult, error) {
	if cfg.Procs <= 0 || cfg.BlocksPerProc <= 0 || cfg.RequestBlocks <= 0 {
		return MacroResult{}, fmt.Errorf("workload: bad IOR config %+v", cfg)
	}
	ops, cut := iorOps(cfg)
	return macro(fsCfg, "IOR", cfg.Collective, int64(cfg.Procs)*cfg.BlocksPerProc, ops, cut)
}

// macro applies an IOR or BTIO list, whose file is fileBlocks large, to a
// fresh mount of fsCfg and measures it.
func macro(fsCfg pfs.Config, app string, collective bool, fileBlocks int64, ops []trace.Op, cut int) (MacroResult, error) {
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return MacroResult{}, err
	}
	p, err := RunPhases(MountTarget(fs), ops, cut, len(ops)-1, false)
	if err != nil {
		return MacroResult{}, err
	}
	bytes := fileBlocks * fsCfg.OST.Disk.BlockSize
	return MacroResult{
		Config:       fsCfg.Name,
		App:          app,
		Collective:   collective,
		WriteMBps:    sim.MBps(bytes, p.WriteNs),
		ReadMBps:     sim.MBps(bytes, p.ReadNs),
		Throughput:   sim.MBps(2*bytes, p.WriteNs+p.ReadNs),
		Extents:      p.Extents,
		MDSCPU:       fs.MDS().CPUUtilization(p.WriteNs+p.ReadNs) * 100,
		Positionings: p.Stats.Positionings,
	}, nil
}

// iorOps generates an IOR run: the shared file's create, the write phase,
// which ends at cut, the read-back/verify phase with the same
// decomposition (the OST layer verifies every block's content end to end)
// and the close. With interference the side file, file slot 1, takes one
// appended block after every 8th write and is closed at the phase's end.
func iorOps(cfg IORConfig) (ops []trace.Op, cut int) {
	fileBlocks := int64(cfg.Procs) * cfg.BlocksPerProc
	writes := iorPhase(cfg, fileBlocks, 1, trace.OpWrite)
	ops = make([]trace.Op, 0, 2*len(writes)+len(writes)/8*3+6)
	ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "ior.dat", Count: fileBlocks})
	var every int64
	if cfg.Interference {
		every = 8
		ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "job.log"}, trace.Op{Kind: trace.OpUse})
	}
	logStream := core.StreamID{Client: 999, PID: 999}
	ops = appendEvery(ops, writes, every, func(ops []trace.Op, i int64) []trace.Op {
		return append(ops, trace.Op{Kind: trace.OpUse, Slot: 1},
			trace.Op{Kind: trace.OpWrite, Stream: logStream, Blk: i, Count: 1}, trace.Op{Kind: trace.OpUse})
	})
	if cfg.Interference {
		ops = append(ops, trace.Op{Kind: trace.OpUse, Slot: 1}, trace.Op{Kind: trace.OpClose}, trace.Op{Kind: trace.OpUse})
	}
	cut = len(ops)
	ops = append(ops, iorPhase(cfg, fileBlocks, 2, trace.OpRead)...)
	return append(ops, trace.Op{Kind: trace.OpClose}), cut
}

// iorPhase generates one IOR phase, its writes or its reads as kind says,
// with rank-skewed arrival order, optionally with collective aggregation.
// phase seeds the skew so the read phase never replays the write phase's
// global ordering.
func iorPhase(cfg IORConfig, fileBlocks int64, phase uint64, kind trace.OpKind) []trace.Op {
	if cfg.Collective {
		return collectiveIO(nil, kind, cfg.Procs, cfg.CollectiveChunkBlocks, 0, fileBlocks)
	}
	// Non-collective: each rank transfers its 1/m share with
	// RequestBlocks transfers; the global arrival order carries the
	// rank skew of a real cluster.
	perRank := (cfg.BlocksPerProc + cfg.RequestBlocks - 1) / cfg.RequestBlocks
	ops := make([]trace.Op, 0, int64(cfg.Procs)*perRank)
	rng := sim.NewRand(uint64(cfg.Procs)*7919 + uint64(fileBlocks) + phase*2654435761)
	jitteredArrival(rng, cfg.Procs, perRank, func(p int, idx int64) {
		off := idx * cfg.RequestBlocks
		ops = append(ops, rankOp(kind, rankStream(p), int64(p)*cfg.BlocksPerProc+off, min(cfg.RequestBlocks, cfg.BlocksPerProc-off)))
	})
	return ops
}
