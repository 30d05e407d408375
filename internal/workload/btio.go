package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
)

// BTIOConfig parameterizes the NPB BTIO workload: "an MPI program designed
// to solve the 3D compressible Navier-Stokes equations using MPI-IO
// library for its on-disk data access". BT decomposes the cubic grid into
// diagonally assigned cells, so each rank's output is many small,
// non-contiguous chunks interleaved with every other rank's — the
// workload where intra-file fragmentation hurts most.
type BTIOConfig struct {
	// Procs must be a square number (BT requirement).
	Procs int
	// CellBlocks is the size of one cell's slab contribution in blocks.
	CellBlocks int64
	// RequestBlocks is the transfer size: each cell is written as a
	// burst of these small sequential requests (BT's per-cell output is
	// small non-contiguous chunks).
	RequestBlocks int64
	// Timesteps is the number of output dumps.
	Timesteps int
	// Collective aggregates each dump into large contiguous transfers.
	Collective bool
	// CollectiveChunkBlocks is the aggregated transfer size.
	CollectiveChunkBlocks int64
}

// DefaultBTIOConfig returns the Figure 7 BTIO shape at laptop scale:
// 64 ranks (8×8 cell grid), 4 KiB cell chunks, 5 dumps.
func DefaultBTIOConfig(procs int) BTIOConfig {
	return BTIOConfig{
		Procs:                 procs,
		CellBlocks:            16, // 64 KiB cells
		RequestBlocks:         2,  // 8 KiB chunks
		Timesteps:             5,
		CollectiveChunkBlocks: 2048,
	}
}

// isqrt returns the integer square root when n is a perfect square.
func isqrt(n int) (int, bool) {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return i, true
		}
	}
	return 0, false
}

// RunBTIO executes BTIO against a fresh mount of cfg.
func RunBTIO(fsCfg pfs.Config, cfg BTIOConfig) (MacroResult, error) {
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return MacroResult{}, err
	}
	sq, ok := isqrt(cfg.Procs)
	if !ok || cfg.Procs <= 0 {
		return MacroResult{}, fmt.Errorf("workload: BTIO needs a square process count, got %d", cfg.Procs)
	}
	if cfg.CellBlocks <= 0 || cfg.Timesteps <= 0 {
		return MacroResult{}, fmt.Errorf("workload: bad BTIO config %+v", cfg)
	}
	// BT's diagonal cell decomposition: the grid of sq×sq cells per
	// slab; rank p owns cell (row, (row+p) mod sq) in each cell-row.
	// In file order (slab-major, then cell index), consecutive cells
	// belong to different ranks — the interleaving that matters.
	slabBlocks := int64(cfg.Procs) * cfg.CellBlocks
	dumpBlocks := slabBlocks * int64(sq) // sq slabs per dump
	fileBlocks := dumpBlocks * int64(cfg.Timesteps)
	f, err := fs.Create(fs.Root(), "btio.nc", fileBlocks)
	if err != nil {
		return MacroResult{}, err
	}

	dump := func(ts int, op func(core.StreamID, int64, int64) error) error {
		base := int64(ts) * dumpBlocks
		if cfg.Collective {
			return collectiveIO(cfg.Procs, cfg.CollectiveChunkBlocks, base, dumpBlocks, op)
		}
		// Non-collective: within slab s, rank p owns cell
		// (p + s) mod procs — BT's diagonal shift — so each rank's
		// contributions to consecutive slabs land at rotating file
		// offsets, and within a slab consecutive cells belong to
		// different ranks. Requests arrive round-robin by rank.
		req := cfg.RequestBlocks
		if req <= 0 || req > cfg.CellBlocks {
			req = cfg.CellBlocks
		}
		reqsPerCell := (cfg.CellBlocks + req - 1) / req
		perRank := int64(sq) * reqsPerCell
		rng := sim.NewRand(uint64(ts)*104729 + uint64(cfg.Procs))
		return jitteredArrival(rng, cfg.Procs,
			func(int) int64 { return perRank },
			func(p int, idx int64) error {
				slab := int(idx / reqsPerCell)
				off := (idx % reqsPerCell) * req
				n := req
				if off+n > cfg.CellBlocks {
					n = cfg.CellBlocks - off
				}
				cell := (p + slab) % cfg.Procs
				blk := base + int64(slab)*slabBlocks + int64(cell)*cfg.CellBlocks + off
				stream := core.StreamID{Client: uint32(p / 4), PID: uint32(p % 4)}
				return op(stream, blk, n)
			})
	}

	write := func(s core.StreamID, blk, n int64) error { return f.Write(s, blk, n) }
	for ts := 0; ts < cfg.Timesteps; ts++ {
		if err := dump(ts, write); err != nil {
			return MacroResult{}, err
		}
	}
	fs.Flush()
	writeElapsed := fs.DataBusyMax()
	extents, err := fs.TotalExtents(f)
	if err != nil {
		return MacroResult{}, err
	}

	// Verification read of the whole solution file: each rank reads a
	// contiguous share sequentially, ranks skewed as on a real cluster.
	fs.ResetDataStats()
	share := fileBlocks / int64(cfg.Procs)
	const readReq = 16
	readsPerRank := (share + readReq - 1) / readReq
	rng := sim.NewRand(uint64(cfg.Procs) * 15485863)
	err = jitteredArrival(rng, cfg.Procs,
		func(int) int64 { return readsPerRank },
		func(p int, idx int64) error {
			off := idx * readReq
			n := int64(readReq)
			if off+n > share {
				n = share - off
			}
			return f.Read(int64(p)*share+off, n)
		})
	if err != nil {
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
		App:          "BTIO",
		Collective:   cfg.Collective,
		WriteMBps:    sim.MBps(bytes, writeElapsed),
		ReadMBps:     sim.MBps(bytes, readElapsed),
		Throughput:   sim.MBps(2*bytes, writeElapsed+readElapsed),
		Extents:      extents,
		MDSCPU:       fs.MDS().CPUUtilization(writeElapsed+readElapsed) * 100,
		Positionings: stats.Positionings,
	}, nil
}
