package workload

import (
	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// MixedStreamResult reports the sequential region's layout quality after
// a mixed-stream run.
type MixedStreamResult struct {
	Extents  int
	ReadMBps float64
}

// mixedRegion is the sequential stream's region in blocks.
const mixedRegion = 4096

// RunMixedStream drives one sequential stream interposed by random
// writers — the miss-threshold ablation: the random streams must be
// turned off without starving the sequential one — then reads the
// sequential region back.
func RunMixedStream(cfg pfs.Config) (MixedStreamResult, error) {
	ops, cut := mixedStreamOps()
	return mixedStream(cfg, ops, cut)
}

// mixedStream applies a mixed-stream list to a fresh mount of cfg and
// measures it.
func mixedStream(cfg pfs.Config, ops []trace.Op, cut int) (MixedStreamResult, error) {
	fs, err := pfs.New(cfg)
	if err != nil {
		return MixedStreamResult{}, err
	}
	p, err := RunPhases(MountTarget(fs), ops, cut, len(ops), false)
	return MixedStreamResult{
		Extents:  p.Extents,
		ReadMBps: sim.MBps(mixedRegion*cfg.OST.Disk.BlockSize, p.ReadNs),
	}, err
}

// mixedStreamOps generates a mixed-stream run: the file's create, the
// interleaved writes, which end at cut, and the sequential read-back.
func mixedStreamOps() (ops []trace.Op, cut int) {
	ops = make([]trace.Op, 0, 1+mixedRegion/8*2+mixedRegion/64)
	ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: "mix.dat"})
	seq := core.StreamID{Client: 1, PID: 1}
	randOffsets := []int64{90000, 95000, 91234, 99999, 93000, 97000}
	for i := int64(0); i < mixedRegion; i += 8 {
		rnd := core.StreamID{Client: 2, PID: uint32(i % 3)}
		ops = append(ops, trace.Op{Kind: trace.OpWrite, Stream: seq, Blk: i, Count: 8},
			trace.Op{Kind: trace.OpWrite, Stream: rnd, Blk: randOffsets[int(i/8)%len(randOffsets)] + i, Count: 1})
	}
	cut = len(ops)
	for i := int64(0); i < mixedRegion; i += 64 {
		ops = append(ops, trace.Op{Kind: trace.OpRead, Blk: i, Count: 64})
	}
	return ops, cut
}
