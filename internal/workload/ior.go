package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
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
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return MacroResult{}, err
	}
	if cfg.Procs <= 0 || cfg.BlocksPerProc <= 0 || cfg.RequestBlocks <= 0 {
		return MacroResult{}, fmt.Errorf("workload: bad IOR config %+v", cfg)
	}
	fileBlocks := int64(cfg.Procs) * cfg.BlocksPerProc
	f, err := fs.Create(fs.Root(), "ior.dat", fileBlocks)
	if err != nil {
		return MacroResult{}, err
	}

	var side *pfs.File
	var sideBlk int64
	if cfg.Interference {
		side, err = fs.Create(fs.Root(), "job.log", 0)
		if err != nil {
			return MacroResult{}, err
		}
	}
	var writes int64
	write := func(stream core.StreamID, blk, count int64) error {
		if err := f.Write(stream, blk, count); err != nil {
			return err
		}
		writes++
		if side != nil && writes%8 == 0 {
			logStream := core.StreamID{Client: 999, PID: 999}
			if err := side.Write(logStream, sideBlk, 1); err != nil {
				return err
			}
			sideBlk++
		}
		return nil
	}
	if err := iorPhase(cfg, fileBlocks, 1, write); err != nil {
		return MacroResult{}, err
	}
	if side != nil {
		if err := side.Close(); err != nil {
			return MacroResult{}, err
		}
	}
	fs.Flush()
	writeElapsed := fs.DataBusyMax()
	extents, err := fs.TotalExtents(f)
	if err != nil {
		return MacroResult{}, err
	}

	// Read-back/verify phase with the same decomposition. The OST layer
	// verifies every block's content end to end.
	fs.ResetDataStats()
	read := func(_ core.StreamID, blk, count int64) error {
		return f.Read(blk, count)
	}
	if err := iorPhase(cfg, fileBlocks, 2, read); err != nil {
		return MacroResult{}, err
	}
	fs.Flush()
	readElapsed := fs.DataBusyMax()
	stats := fs.DataStats()
	if err := f.Close(); err != nil {
		return MacroResult{}, err
	}

	blockBytes := fsCfg.OST.Disk.BlockSize
	bytes := fileBlocks * blockBytes
	return MacroResult{
		Config:       fsCfg.Name,
		App:          "IOR",
		Collective:   cfg.Collective,
		WriteMBps:    sim.MBps(bytes, writeElapsed),
		ReadMBps:     sim.MBps(bytes, readElapsed),
		Throughput:   sim.MBps(2*bytes, writeElapsed+readElapsed),
		Extents:      extents,
		MDSCPU:       fs.MDS().CPUUtilization(writeElapsed+readElapsed) * 100,
		Positionings: stats.Positionings,
	}, nil
}

// iorPhase drives one IOR phase (write or read) with rank-skewed arrival
// order, optionally with collective aggregation. phase seeds the skew so
// the read phase never replays the write phase's global ordering.
func iorPhase(cfg IORConfig, fileBlocks int64, phase uint64, op func(core.StreamID, int64, int64) error) error {
	if cfg.Collective {
		return collectiveIO(cfg.Procs, cfg.CollectiveChunkBlocks, 0, fileBlocks, op)
	}
	// Non-collective: each rank transfers its 1/m share with
	// RequestBlocks transfers; the global arrival order carries the
	// rank skew of a real cluster.
	perRank := (cfg.BlocksPerProc + cfg.RequestBlocks - 1) / cfg.RequestBlocks
	rng := sim.NewRand(uint64(cfg.Procs)*7919 + uint64(fileBlocks) + phase*2654435761)
	return jitteredArrival(rng, cfg.Procs,
		func(int) int64 { return perRank },
		func(p int, idx int64) error {
			off := idx * cfg.RequestBlocks
			n := cfg.RequestBlocks
			if off+n > cfg.BlocksPerProc {
				n = cfg.BlocksPerProc - off
			}
			stream := core.StreamID{Client: uint32(p / 4), PID: uint32(p % 4)}
			return op(stream, int64(p)*cfg.BlocksPerProc+off, n)
		})
}
