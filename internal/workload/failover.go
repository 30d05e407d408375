package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// FailoverBenchConfig parameterizes the failover experiment: an IOR-style
// sequential write phase over replicated files with one OST killed midway,
// a full read-back while the server is still dark, and a repair drain that
// restores redundancy. The run must finish with zero I/O errors — every
// failed copy is absorbed by write fan-out skipping and read steering.
type FailoverBenchConfig struct {
	// Files is the number of files written concurrently (round-robin).
	Files int
	// FileBlocks is each file's size in blocks.
	FileBlocks int64
	// RequestBlocks is the per-request transfer size in blocks.
	RequestBlocks int64
	// Replication tunes the replica sets (RF, slice size, repair pacing).
	Replication replica.Config
	// CrashOST is the server blackholed when the write phase is half done.
	CrashOST int
}

// DefaultFailoverBenchConfig returns the evaluation shape: 4 files of 4 MiB
// under 3-way replication, 64 KiB requests, OST 1 killed mid-write.
func DefaultFailoverBenchConfig() FailoverBenchConfig {
	return FailoverBenchConfig{
		Files:         4,
		FileBlocks:    1024,
		RequestBlocks: 16,
		Replication:   replica.DefaultConfig(),
		CrashOST:      1,
	}
}

// FailoverBenchResult measures one failover run.
type FailoverBenchResult struct {
	Config string
	RF     int
	OSTs   int

	// WriteMBps is the write phase's client-visible throughput — degraded
	// from the healthy rate by the fan-out and by the timeout wall the
	// crash puts up until the client marks the server down.
	WriteMBps float64
	// ReadMBps is the read-back throughput with the server still dark.
	ReadMBps float64

	// Replica-layer activity over the whole run.
	Stats replica.Stats
	// UnderReplPeak is the largest number of simultaneously
	// under-replicated components observed.
	UnderReplPeak int64
	// TimeToRedundancyNs is the simulated time from the crash until every
	// component was back at full strength.
	TimeToRedundancyNs sim.Ns
}

// RunFailoverBench executes the failover experiment on fsCfg. The mount is
// reconfigured for the run: the replica manager from cfg.Replication and a
// short retry policy so discovery timeouts don't dominate the degraded
// phase. The crash is a blackhole on the mount's connection, so fsCfg.RPC.
// Fault stays whatever the caller set (nil: no injected loss).
func RunFailoverBench(fsCfg pfs.Config, cfg FailoverBenchConfig) (FailoverBenchResult, error) {
	var res FailoverBenchResult
	if cfg.Files <= 0 || cfg.FileBlocks <= 0 || cfg.RequestBlocks <= 0 {
		return res, fmt.Errorf("workload: bad failover bench config %+v", cfg)
	}
	if cfg.CrashOST < 0 || cfg.CrashOST >= fsCfg.OSTs {
		return res, fmt.Errorf("workload: crash target ost%d outside %d OSTs", cfg.CrashOST, fsCfg.OSTs)
	}
	rep := cfg.Replication
	fsCfg.Replication = &rep
	if fsCfg.RPC.Retry == nil {
		fsCfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
	}
	if fsCfg.Trace == nil {
		// Time-to-redundancy is measured on the simulated timeline, so the
		// run always traces (privately when the session doesn't).
		fsCfg.Trace = telemetry.NewTracer(nil)
	}
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return res, err
	}
	mgr := fs.Replication()
	tr := fs.Tracer()
	res.Config = fsCfg.Name
	res.RF = mgr.RF()
	res.OSTs = fs.OSTs()

	// Write phase: IOR-style interleaved sequential writes, the crash fired
	// when half the rounds are in, repair steps interleaved with traffic
	// like the defrag engine's online mode.
	files := make([]*pfs.File, cfg.Files)
	for i := range files {
		f, err := fs.Create(fs.Root(), fmt.Sprintf("failover%02d.dat", i), 0)
		if err != nil {
			return res, err
		}
		files[i] = f
	}
	var crashedAt sim.Ns = -1
	var restoredAt sim.Ns = -1
	peak := func() {
		if u := mgr.UnderReplicated(); u > res.UnderReplPeak {
			res.UnderReplPeak = u
		}
	}
	rounds := (cfg.FileBlocks + cfg.RequestBlocks - 1) / cfg.RequestBlocks
	writeBegin := tr.Now()
	round := int64(0)
	for off := int64(0); off < cfg.FileBlocks; off += cfg.RequestBlocks {
		n := cfg.RequestBlocks
		if off+n > cfg.FileBlocks {
			n = cfg.FileBlocks - off
		}
		if round == rounds/2 {
			if err := fs.CrashOST(cfg.CrashOST); err != nil {
				return res, err
			}
			crashedAt = tr.Now()
		}
		for i, f := range files {
			st := core.StreamID{Client: uint32(i), PID: 0}
			if err := f.Write(st, off, n); err != nil {
				return res, fmt.Errorf("workload: degraded write failed: %w", err)
			}
		}
		if _, err := fs.RepairStep(false); err != nil {
			return res, err
		}
		peak()
		round++
	}
	if err := fs.Sync(); err != nil {
		return res, err
	}
	bytes := int64(cfg.Files) * cfg.FileBlocks * fs.Config().OST.Disk.BlockSize
	res.WriteMBps = sim.MBps(bytes, tr.Now()-writeBegin)

	// Read-back with the server still dark: steering must route every piece
	// to a live clean replica.
	readBegin := tr.Now()
	for _, f := range files {
		for off := int64(0); off < cfg.FileBlocks; off += cfg.RequestBlocks {
			n := cfg.RequestBlocks
			if off+n > cfg.FileBlocks {
				n = cfg.FileBlocks - off
			}
			if err := f.Read(off, n); err != nil {
				return res, fmt.Errorf("workload: degraded read failed: %w", err)
			}
		}
	}
	res.ReadMBps = sim.MBps(bytes, tr.Now()-readBegin)
	peak()

	// Repair drain: force-step until every component is repaired onto the
	// surviving servers, tracking when full redundancy returns.
	for {
		worked, err := fs.RepairStep(true)
		if err != nil {
			return res, err
		}
		if restoredAt < 0 && mgr.FullyReplicated() {
			restoredAt = tr.Now()
		}
		if !worked {
			break
		}
	}
	if !mgr.FullyReplicated() {
		return res, fmt.Errorf("workload: %d components still under-replicated after drain", mgr.UnderReplicated())
	}
	if crashedAt >= 0 && restoredAt >= 0 {
		res.TimeToRedundancyNs = restoredAt - crashedAt
	}

	// Verification pass: the repaired file set must read back clean.
	for _, f := range files {
		if err := f.Read(0, cfg.FileBlocks); err != nil {
			return res, fmt.Errorf("workload: post-repair read failed: %w", err)
		}
		if err := f.Close(); err != nil {
			return res, err
		}
	}
	res.Stats = mgr.Stats()
	return res, nil
}
