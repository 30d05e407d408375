package workload

import (
	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
)

// MixedStreamResult reports the sequential region's layout quality after
// a mixed-stream run.
type MixedStreamResult struct {
	Extents  int
	ReadMBps float64
}

// RunMixedStream drives one sequential stream interposed by random
// writers — the miss-threshold ablation: the random streams must be
// turned off without starving the sequential one — then reads the
// sequential region back.
func RunMixedStream(cfg pfs.Config) (MixedStreamResult, error) {
	fs, err := pfs.New(cfg)
	if err != nil {
		return MixedStreamResult{}, err
	}
	f, err := fs.Create(fs.Root(), "mix.dat", 0)
	if err != nil {
		return MixedStreamResult{}, err
	}
	seq := core.StreamID{Client: 1, PID: 1}
	const region = 4096
	randOffsets := []int64{90000, 95000, 91234, 99999, 93000, 97000}
	for i := int64(0); i < region; i += 8 {
		if err := f.Write(seq, i, 8); err != nil {
			return MixedStreamResult{}, err
		}
		rnd := core.StreamID{Client: 2, PID: uint32(i % 3)}
		if err := f.Write(rnd, randOffsets[int(i/8)%len(randOffsets)]+i, 1); err != nil {
			return MixedStreamResult{}, err
		}
	}
	fs.Flush()
	extents, err := fs.TotalExtents(f)
	if err != nil {
		return MixedStreamResult{}, err
	}
	fs.ResetDataStats()
	for i := int64(0); i < region; i += 64 {
		if err := f.Read(i, 64); err != nil {
			return MixedStreamResult{}, err
		}
	}
	fs.Flush()
	return MixedStreamResult{
		Extents:  extents,
		ReadMBps: sim.MBps(region*cfg.OST.Disk.BlockSize, fs.DataBusyMax()),
	}, nil
}
