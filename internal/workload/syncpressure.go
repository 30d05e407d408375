package workload

import (
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// The sync-pressure run's shape: streams extending regions of a shared
// file in requests of syncRequest blocks.
const (
	syncStreams = 16
	syncRegion  = 1024
	syncRequest = 4
)

// RunSyncPressure drives the delayed-allocation-vs-on-demand comparison:
// 16 streams extend disjoint regions of a shared file, calling fsync every
// fsyncEvery requests per stream (0 = never, one flush at close). It
// returns the resulting extent count and the sequential read-back
// throughput.
//
// This quantifies the paper's positioning of the two techniques (§2):
// delayed allocation coalesces beautifully while data may linger in
// memory, but explicit syncs shrink its window back toward per-request
// placement; on-demand preallocation "can improve data placement on
// concurrent access without any runtime assumption".
func RunSyncPressure(fsCfg pfs.Config, fsyncEvery int64) (extents int, readMBps float64, err error) {
	ops, cut := syncPressureOps(fsyncEvery)
	return syncPressure(fsCfg, ops, cut)
}

// syncPressure applies a sync-pressure list to a fresh mount of fsCfg and
// measures it.
func syncPressure(fsCfg pfs.Config, ops []trace.Op, cut int) (int, float64, error) {
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return 0, 0, err
	}
	p, err := RunPhases(MountTarget(fs), ops, cut, len(ops), false)
	total := int64(syncStreams) * syncRegion * fsCfg.OST.Disk.BlockSize
	return p.Extents, sim.MBps(total, p.ReadNs), err
}

// syncPressureOps generates a sync-pressure run: the file's create, the
// shared pattern's writes with an fsync after every fsyncEvery-th, which
// end at cut, and the read-back, the streams' regions read in a seeded
// random interleaving.
func syncPressureOps(fsyncEvery int64) (ops []trace.Op, cut int) {
	writes, _ := trace.Generate(trace.GenConfig{Pattern: "shared", Streams: syncStreams,
		RegionBlocks: syncRegion, RequestBlocks: syncRequest})
	var syncs int64
	if fsyncEvery > 0 {
		syncs = int64(len(writes)) / fsyncEvery
	}
	ops = make([]trace.Op, 0, 1+int64(len(writes))+syncs+syncStreams*syncRegion/16)
	ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "sync.dat", Count: syncStreams * syncRegion})
	ops = appendEvery(ops, writes, fsyncEvery, func(ops []trace.Op, _ int64) []trace.Op {
		return append(ops, trace.Op{Kind: trace.OpFsync})
	})
	cut = len(ops)
	rng := sim.NewRand(99)
	var progress [syncStreams]int64
	for remaining := syncStreams; remaining > 0; {
		s := rng.Intn(syncStreams)
		if progress[s] >= syncRegion {
			continue
		}
		ops = append(ops, trace.Op{Kind: trace.OpRead, Blk: int64(s)*syncRegion + progress[s], Count: 16})
		if progress[s] += 16; progress[s] >= syncRegion {
			remaining--
		}
	}
	return ops, cut
}
