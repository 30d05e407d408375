package workload

import (
	"fmt"
	"strings"

	"redbud/internal/cache"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
	"redbud/internal/trace"
)

// CacheBenchConfig parameterizes the client-cache experiment: the Figure 1
// aging pattern (interleaved small sequential writers) followed by re-read
// passes, run with the cache off and on over the same deterministic
// request sequence.
type CacheBenchConfig struct {
	// Files is the number of concurrently-written files; their round-robin
	// interleaving is what fragments the volume and shreds the write RPC
	// stream.
	Files int
	// FileBlocks is each file's size in blocks.
	FileBlocks int64
	// RequestBlocks is the write request size (small, so the uncached
	// mount issues many tiny RPCs).
	RequestBlocks int64
	// ReadRequestBlocks is the sequential re-read request size.
	ReadRequestBlocks int64
	// Cache tunes the cached arm. The capacity should hold the whole
	// working set so the second re-read pass measures pure cache hits.
	Cache cache.Config
}

// DefaultCacheBenchConfig returns a laptop-scale shape: 8 files of 4 MiB
// written in 16 KiB interleaved requests, re-read twice in 256 KiB
// requests, against the default cache tuning (whose 64 MiB capacity holds
// the 32 MiB working set).
func DefaultCacheBenchConfig() CacheBenchConfig {
	return CacheBenchConfig{
		Files:             8,
		FileBlocks:        1024,
		RequestBlocks:     4,
		ReadRequestBlocks: 64,
		Cache:             cache.DefaultConfig(),
	}
}

// CacheArmResult measures one arm (cache off or on) of the experiment.
type CacheArmResult struct {
	CacheOn bool

	// Write phase: interleaved small sequential writes, ended by the Sync
	// barrier so the cached arm pays its write-backs inside the phase.
	WriteRPCs         int64 // obj-write RPCs issued
	WritePositionings int64 // disk head movements during the phase
	WriteMBps         float64
	Extents           int // total file extents after the barrier

	// Re-read phase: two identical sequential passes. With the cache on,
	// blocks still resident from the write phase serve both passes from
	// client memory — zero RPCs, zero head movement.
	Pass1ReadRPCs     int64
	Pass2ReadRPCs     int64
	Pass1Positionings int64
	Pass2Positionings int64
	Pass1MBps         float64
	Pass2MBps         float64

	// Cache counters (zero for the uncached arm).
	Cache cache.Stats
}

// TotalPositionings sums the disk head movements of all three phases —
// the paper's block-layer metric, end to end over the experiment.
func (r CacheArmResult) TotalPositionings() int64 {
	return r.WritePositionings + r.Pass1Positionings + r.Pass2Positionings
}

// CacheBenchResult reports both arms for one mount profile.
type CacheBenchResult struct {
	Config string
	Files  int
	Off    CacheArmResult
	On     CacheArmResult
}

// rpcCount sums one op's rpc_calls across the registry.
func rpcCount(reg *telemetry.Registry, op string) int64 {
	var total int64
	want := "op=" + op
	for _, s := range reg.Snapshot() {
		if s.Name == "rpc_calls" && strings.Contains(s.Labels, want) {
			total += s.Value
		}
	}
	return total
}

// runCacheArm applies the cache bench's list to one fresh mount and
// measures it. An uninstrumented caller gets a private registry (so arms
// never share counters); a caller-supplied registry is used directly — the
// arms' mounts are renamed so their metrics stay distinguishable, and all
// RPC counts are measured as before/after deltas.
func runCacheArm(fsCfg pfs.Config, cfg CacheBenchConfig, withCache bool, ops []trace.Op, cuts []int) (CacheArmResult, error) {
	res := CacheArmResult{CacheOn: withCache}
	reg := fsCfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
		fsCfg.Metrics = reg
	} else if withCache {
		fsCfg.Name += "/cache-on"
	} else {
		fsCfg.Name += "/cache-off"
	}
	var cc cache.Config // the off arm's capacity-0 pass-through
	if withCache {
		cc = cfg.Cache
	}
	fsCfg.Cache = &cc
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return res, err
	}
	t := MountTarget(fs)
	bytes := int64(cfg.Files) * cfg.FileBlocks * fs.Config().OST.Disk.BlockSize
	// The write phase's counters start before its creates; the passes'
	// after server restarts that drop the OST-side prefetch state, so
	// only the client cache distinguishes them.
	var before int64
	var countErr error
	err = applyPhases(t, ops, cuts, func(phase int) {
		switch phase {
		case 0:
			fs.ResetDataStats()
			before = rpcCount(reg, "obj-write")
			return
		case 1:
			res.WriteRPCs = rpcCount(reg, "obj-write") - before
			res.WritePositionings = fs.DataStats().Positionings
			res.WriteMBps = sim.MBps(bytes, fs.DataBusyMax())
			res.Extents, countErr = totalExtents(fs, t.files)
		default:
			fs.Flush()
			rpcs := rpcCount(reg, "obj-read") - before
			tput := sim.MBps(bytes, fs.DataBusyMax())
			pos := fs.DataStats().Positionings
			if phase == 2 {
				res.Pass1ReadRPCs, res.Pass1Positionings, res.Pass1MBps = rpcs, pos, tput
			} else {
				res.Pass2ReadRPCs, res.Pass2Positionings, res.Pass2MBps = rpcs, pos, tput
			}
		}
		if phase < 3 {
			for i := 0; i < fs.OSTs(); i++ {
				fs.OST(i).Restart()
			}
			fs.ResetDataStats()
			before = rpcCount(reg, "obj-read")
		}
	})
	if err != nil {
		return res, err
	}
	res.Cache = fs.Cache().Stats()
	return res, countErr
}

// cacheBenchOps generates the cache bench's run, its phases ending at
// cuts 1 to 3. Write phase: the files' creates, file slots 0 on, and
// round-robin interleaved small sequential writes, the arrival order that
// provokes intra-file fragmentation, closed by the sync barrier (the
// cached arm's write-backs land inside the phase). Re-read phase: two
// identical sequential passes over the files in turn. With the cache on,
// blocks still resident from the write phase serve both passes from client
// memory — zero RPCs, zero head movement.
func cacheBenchOps(cfg CacheBenchConfig) (ops []trace.Op, cuts []int) {
	chunks := func(n int64) int64 { return (cfg.FileBlocks + n - 1) / n }
	files := int64(cfg.Files)
	ops = make([]trace.Op, 0, files*(1+2*chunks(cfg.RequestBlocks)+2*(1+chunks(cfg.ReadRequestBlocks)))+1)
	for i := 0; i < cfg.Files; i++ {
		ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Name: fmt.Sprintf("cache%02d.dat", i)})
	}
	for off := int64(0); off < cfg.FileBlocks; off += cfg.RequestBlocks {
		for i := 0; i < cfg.Files; i++ {
			ops = append(ops, trace.Op{Kind: trace.OpUse, Slot: int64(i)},
				trace.Op{Kind: trace.OpWrite, Stream: rankStream(i), Blk: off, Count: min(cfg.RequestBlocks, cfg.FileBlocks-off)})
		}
	}
	ops = append(ops, trace.Op{Kind: trace.OpSync})
	cuts = []int{0, len(ops)}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cfg.Files; i++ {
			ops = append(ops, trace.Op{Kind: trace.OpUse, Slot: int64(i)})
			for off := int64(0); off < cfg.FileBlocks; off += cfg.ReadRequestBlocks {
				ops = append(ops, trace.Op{Kind: trace.OpRead, Blk: off, Count: min(cfg.ReadRequestBlocks, cfg.FileBlocks-off)})
			}
		}
		cuts = append(cuts, len(ops))
	}
	return ops, cuts
}

// RunCacheBench executes both arms of the client-cache experiment against
// fsCfg: identical deterministic request sequences with the cache off and
// on. The off arm is the existing write-through behavior; the on arm must
// aggregate the small interleaved writes into coalesced write-backs and
// serve the second re-read pass from memory.
func RunCacheBench(fsCfg pfs.Config, cfg CacheBenchConfig) (CacheBenchResult, error) {
	if cfg.Files <= 0 || cfg.FileBlocks <= 0 || cfg.RequestBlocks <= 0 || cfg.ReadRequestBlocks <= 0 {
		return CacheBenchResult{}, fmt.Errorf("workload: bad cache bench config %+v", cfg)
	}
	ops, cuts := cacheBenchOps(cfg)
	return cacheBench(fsCfg, cfg, ops, cuts)
}

// cacheBench runs both arms of a cache bench list.
func cacheBench(fsCfg pfs.Config, cfg CacheBenchConfig, ops []trace.Op, cuts []int) (CacheBenchResult, error) {
	res := CacheBenchResult{Config: fsCfg.Name, Files: cfg.Files}
	var err error
	if res.Off, err = runCacheArm(fsCfg, cfg, false, ops, cuts); err != nil {
		return res, err
	}
	res.On, err = runCacheArm(fsCfg, cfg, true, ops, cuts)
	return res, err
}
