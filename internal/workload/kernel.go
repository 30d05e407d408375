package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// KernelTreeConfig parameterizes the application mix of Figure 10: "the
// three applications all use files (or tar.gz) of linux kernel code" —
// tar (unpack the tree), make (compile: read every source, emit objects,
// burn CPU), and make clean (delete the objects).
type KernelTreeConfig struct {
	// Dirs is the number of source directories.
	Dirs int
	// FilesPerDir is the source-file count per directory.
	FilesPerDir int
	// MeanFileBlocks shapes the file-size distribution (kernel sources
	// are small: a few KiB to tens of KiB).
	MeanFileBlocks int64
	// ObjectRatioPct is the percentage of sources that produce an
	// object file during make.
	ObjectRatioPct int
	// CompileNsPerFile is the modeled CPU cost of compiling one file —
	// what makes make "CPU-intensive" and its I/O gain small.
	CompileNsPerFile sim.Ns
	// Seed drives the size distribution.
	Seed uint64
}

// DefaultKernelTreeConfig returns a scaled-down kernel tree.
func DefaultKernelTreeConfig() KernelTreeConfig {
	return KernelTreeConfig{
		Dirs:             40,
		FilesPerDir:      60,
		MeanFileBlocks:   3,
		ObjectRatioPct:   60,
		CompileNsPerFile: 40 * sim.Millisecond,
		Seed:             23,
	}
}

// KernelTreeResult reports the three application phases.
type KernelTreeResult struct {
	Tar       AppResult
	Make      AppResult
	MakeClean AppResult
}

// RunKernelTree executes tar, make, and make clean against a fresh mount.
func RunKernelTree(fsCfg pfs.Config, cfg KernelTreeConfig) (KernelTreeResult, error) {
	if cfg.Dirs <= 0 || cfg.FilesPerDir <= 0 || cfg.MeanFileBlocks <= 0 {
		return KernelTreeResult{}, fmt.Errorf("workload: bad kernel-tree config %+v", cfg)
	}
	t, err := appTarget(fsCfg)
	if err != nil {
		return KernelTreeResult{}, err
	}
	res, _, err := kernelTree(cfg, t)
	return res, err
}

// kernelTree applies a kernel-tree run to t, timing each phase, and
// returns the ops it applied.
func kernelTree(cfg KernelTreeConfig, t *Target) (KernelTreeResult, []trace.Op, error) {
	ops, cuts, compute := kernelTreeOps(cfg)
	var busy [4]sim.Ns
	if err := applyPhases(t, ops, cuts, func(i int) { busy[i] = elapsedOf(t.mount, 0) }); err != nil {
		return KernelTreeResult{}, ops, err
	}
	return KernelTreeResult{
		Tar:       AppResult{Elapsed: busy[1] - busy[0]},
		Make:      AppResult{Elapsed: busy[2] - busy[1] + compute},
		MakeClean: AppResult{Elapsed: busy[3] - busy[2]},
	}, ops, nil
}

// kernelTreeOps generates a kernel-tree run, its phases ending at cuts 1
// to 3, and the compile CPU that make burns.
func kernelTreeOps(cfg KernelTreeConfig) (ops []trace.Op, cuts []int, compute sim.Ns) {
	rng := sim.NewRand(cfg.Seed)
	stream := core.StreamID{Client: 1, PID: 1}
	size := func() int64 {
		// Skewed small-file distribution around the mean.
		n := 1 + rng.Int63n(cfg.MeanFileBlocks*2)
		if rng.Intn(20) == 0 {
			n *= 8 // occasional large file
		}
		return n
	}
	file := func(dir int64, name string, n int64) {
		ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Slot: dir, Name: name, Count: n},
			trace.Op{Kind: trace.OpWrite, Stream: stream, Count: n}, trace.Op{Kind: trace.OpClose})
	}
	type src struct {
		dir       int64
		name, obj string
		size      int64
	}
	var sources []src
	objects := make([]int64, cfg.Dirs+1) // per directory slot

	// tar: unpack the tree — directory creates plus sequential small
	// file writes.
	cuts = append(cuts, 0)
	for d := int64(1); d <= int64(cfg.Dirs); d++ {
		ops = append(ops, trace.Op{Kind: trace.OpMkdir, Name: fmt.Sprintf("drivers%03d", d-1)})
		for i := 0; i < cfg.FilesPerDir; i++ {
			s := src{dir: d, name: fmt.Sprintf("src%04d.c", i), obj: fmt.Sprintf("src%04d.o", i), size: size()}
			file(d, s.name, s.size)
			sources = append(sources, s)
		}
	}
	ops = append(ops, trace.Op{Kind: trace.OpSync})
	cuts = append(cuts, len(ops))

	// make: stat + read every source (the compiler's includes), emit an
	// object file for a fraction, and burn compile CPU.
	ops = append(ops, trace.Op{Kind: trace.OpDropCaches})
	for _, s := range sources {
		ops = append(ops, trace.Op{Kind: trace.OpStat, Slot: s.dir, Name: s.name},
			trace.Op{Kind: trace.OpOpen, Slot: s.dir, Name: s.name},
			trace.Op{Kind: trace.OpRead, Count: s.size}, trace.Op{Kind: trace.OpClose})
		if rng.Intn(100) < cfg.ObjectRatioPct {
			compute += cfg.CompileNsPerFile
			file(s.dir, s.obj, max(s.size/2, 1))
			objects[s.dir]++
		}
	}
	ops = append(ops, trace.Op{Kind: trace.OpSync})
	cuts = append(cuts, len(ops))

	// make clean: readdir every directory, delete the objects. Make
	// clean deletes every source's object, built or not, and a missing
	// one costs its lookup.
	ops = append(ops, trace.Op{Kind: trace.OpDropCaches})
	for i, s := range sources {
		if i%cfg.FilesPerDir == 0 {
			ops = append(ops, trace.Op{Kind: trace.OpReaddirPlus, Slot: s.dir, Count: int64(cfg.FilesPerDir) + objects[s.dir]})
		}
		ops = append(ops, trace.Op{Kind: trace.OpDeleteIfPresent, Slot: s.dir, Name: s.obj})
	}
	ops = append(ops, trace.Op{Kind: trace.OpSync})
	return ops, append(cuts, len(ops)), compute
}
