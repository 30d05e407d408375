package workload

import (
	"fmt"

	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
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
	sq, ok := isqrt(cfg.Procs)
	if !ok || cfg.Procs <= 0 {
		return MacroResult{}, fmt.Errorf("workload: BTIO needs a square process count, got %d", cfg.Procs)
	}
	if cfg.CellBlocks <= 0 || cfg.Timesteps <= 0 {
		return MacroResult{}, fmt.Errorf("workload: bad BTIO config %+v", cfg)
	}
	ops, cut := btioOps(cfg, sq)
	return macro(fsCfg, "BTIO", cfg.Collective, ops[0].Count, ops, cut)
}

// btioOps generates a BTIO run on a grid of sq×sq cells per slab: the
// solution file's create, the dumps, which end at cut, the verification
// read and the close.
func btioOps(cfg BTIOConfig, sq int) (ops []trace.Op, cut int) {
	// BT's diagonal cell decomposition: rank p owns cell (row, (row+p)
	// mod sq) in each cell-row. In file order (slab-major, then cell
	// index), consecutive cells belong to different ranks — the
	// interleaving that matters.
	slabBlocks := int64(cfg.Procs) * cfg.CellBlocks
	dumpBlocks := slabBlocks * int64(sq) // sq slabs per dump
	fileBlocks := dumpBlocks * int64(cfg.Timesteps)
	req := cfg.RequestBlocks
	if req <= 0 || req > cfg.CellBlocks {
		req = cfg.CellBlocks
	}
	reqsPerCell := (cfg.CellBlocks + req - 1) / req
	share := fileBlocks / int64(cfg.Procs)
	const readReq = 16
	readsPerRank := (share + readReq - 1) / readReq
	ops = make([]trace.Op, 0, int64(cfg.Procs)*(int64(sq)*reqsPerCell*int64(cfg.Timesteps)+readsPerRank)+2)
	ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "btio.nc", Count: fileBlocks})
	for ts := 0; ts < cfg.Timesteps; ts++ {
		base := int64(ts) * dumpBlocks
		if cfg.Collective {
			ops = collectiveIO(ops, trace.OpWrite, cfg.Procs, cfg.CollectiveChunkBlocks, base, dumpBlocks)
			continue
		}
		// Non-collective: within slab s, rank p owns cell (p + s) mod
		// procs — BT's diagonal shift — so each rank's contributions to
		// consecutive slabs land at rotating file offsets, and within a
		// slab consecutive cells belong to different ranks. Each cell is
		// a burst of small sequential requests, the ranks skewed.
		rng := sim.NewRand(uint64(ts)*104729 + uint64(cfg.Procs))
		jitteredArrival(rng, cfg.Procs, int64(sq)*reqsPerCell, func(p int, idx int64) {
			slab := idx / reqsPerCell
			off := (idx % reqsPerCell) * req
			cell := (p + int(slab)) % cfg.Procs
			blk := base + slab*slabBlocks + int64(cell)*cfg.CellBlocks + off
			ops = append(ops, trace.Op{Kind: trace.OpWrite, Stream: rankStream(p), Blk: blk, Count: min(req, cfg.CellBlocks-off)})
		})
	}
	cut = len(ops)

	// Verification read of the whole solution file: each rank reads a
	// contiguous share sequentially, ranks skewed as on a real cluster.
	rng := sim.NewRand(uint64(cfg.Procs) * 15485863)
	jitteredArrival(rng, cfg.Procs, readsPerRank, func(p int, idx int64) {
		off := idx * readReq
		ops = append(ops, trace.Op{Kind: trace.OpRead, Blk: int64(p)*share + off, Count: min(readReq, share-off)})
	})
	return append(ops, trace.Op{Kind: trace.OpClose}), cut
}
