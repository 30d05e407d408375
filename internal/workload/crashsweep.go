package workload

import (
	"errors"
	"fmt"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/pfs"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// CrashSweepConfig parameterizes the crash-point sweep experiment: one
// phased workload that walks every registered crash point (journal commit
// and checkpoint, IO-server write/flush/truncate/migrate, replica repair,
// cache barriers), run once per (point, tear-mode) pair with a power
// failure injected at that point, then recovered and verified.
type CrashSweepConfig struct {
	// Seed derives every run's damage plan. Two sweeps with equal seeds
	// produce byte-identical reports.
	Seed uint64
	// Points restricts the sweep to a subset of the registry (by name);
	// nil sweeps every registered point.
	Points []string
	// Metrics, when set, receives layer=crash telemetry.
	Metrics *telemetry.Registry
}

// DefaultCrashSweepConfig returns the full-registry sweep shape.
func DefaultCrashSweepConfig() CrashSweepConfig {
	return CrashSweepConfig{Seed: 42}
}

// ackedFile is one append-only file together with the durable prefix the
// workload has been acknowledged for: blocks is advanced only after Fsync
// returns, so everything below it must survive any later crash. An fsync
// acknowledges the data, not the name: until a mount Sync returns after
// the create, a crash may lose the file with its name.
type ackedFile struct {
	name    string
	f       *pfs.File
	written int64 // blocks issued (possibly still volatile)
	blocks  int64 // blocks acknowledged durable by a returned Fsync
	named   bool  // a returned Sync made the create durable
}

// crashTarget is one sweep run's system under test: a replicated, cached
// MiF mount with the injector threaded through every write-side hot path.
type crashTarget struct {
	cfg       CrashSweepConfig
	fs        *pfs.FS
	acked     []*ackedFile
	recovered *pfs.RecoveryReport
	// reg, when set (tests), instruments the mount itself — used to prove
	// an attached-but-unarmed injector leaves every simulated metric
	// byte-identical to a vanilla run.
	reg *telemetry.Registry
}

// crashSweepMount builds the run's mount: 3 IO servers, 2-way replication
// so the repair points are live, a short retry policy so the blackhole
// phase doesn't dominate, and a client cache so the barrier points are
// live. OST crashes need no fault injector.
func (t *crashTarget) crashSweepMount(in *crashsim.Injector) error {
	rep := replica.DefaultConfig()
	rep.RF = 2
	cacheCfg := cache.DefaultConfig()
	fsCfg := pfs.MiF(3)
	fsCfg.Name = "crashsweep"
	fsCfg.Replication = &rep
	fsCfg.Cache = &cacheCfg
	fsCfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
	fsCfg.Crash = in
	fsCfg.Metrics = t.reg
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return err
	}
	t.fs = fs
	return nil
}

// appendAcked issues one append burst to an acked file. Durability is not
// claimed until ack() is called after a successful Fsync.
func (t *crashTarget) appendAcked(af *ackedFile, stream core.StreamID, count int64) error {
	if err := af.f.Write(stream, af.written, count); err != nil {
		return fmt.Errorf("append %s: %w", af.name, err)
	}
	af.written += count
	return nil
}

// fsyncAcked forces an acked file and, only once the barrier returns,
// advances the durable prefix to everything issued so far.
func (t *crashTarget) fsyncAcked(af *ackedFile) error {
	if err := af.f.Fsync(); err != nil {
		return fmt.Errorf("fsync %s: %w", af.name, err)
	}
	af.blocks = af.written
	return nil
}

// Run executes the phased workload. Each phase exists to push one family
// of crash points past its registered occurrence; the baseline run proves
// every registered point is actually reached.
func (t *crashTarget) Run(in *crashsim.Injector) error {
	if err := t.crashSweepMount(in); err != nil {
		return err
	}
	fs := t.fs

	// Phase 1 — namespace and durable appends: mkdir/creates feed the
	// journal, appends + fsyncs drive the OST write queue, media flush,
	// fsync barrier, and the cache writeback/barrier points. The first
	// Sync is the first journal commit + checkpoint.
	dir, err := fs.Mkdir(fs.Root(), "sweep")
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		f, err := fs.Create(dir, fmt.Sprintf("acked%02d.dat", i), 0)
		if err != nil {
			return err
		}
		t.acked = append(t.acked, &ackedFile{name: fmt.Sprintf("acked%02d.dat", i), f: f})
	}
	for round := 0; round < 3; round++ {
		for i, af := range t.acked {
			st := core.StreamID{Client: uint32(i), PID: 0}
			if err := t.appendAcked(af, st, 16); err != nil {
				return err
			}
			if err := t.fsyncAcked(af); err != nil {
				return err
			}
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	for _, af := range t.acked {
		af.named = true
	}

	// Phase 2 — metadata churn and two more Syncs: the journal commit
	// points are registered at occurrence 3, so each Sync must have dirty
	// metadata in front of it.
	for batch := 0; batch < 2; batch++ {
		for j := 0; j < 3; j++ {
			f, err := fs.Create(dir, fmt.Sprintf("meta%d_%d.dat", batch, j), 0)
			if err != nil {
				return err
			}
			st := core.StreamID{Client: 8, PID: uint32(j)}
			if err := f.Write(st, 0, 4); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if err := fs.Sync(); err != nil {
			return err
		}
	}

	// Phase 3 — fragmentation, truncate, defragmentation: round-robin
	// interleaved bursts with per-round fsyncs force interleaved physical
	// allocation (the cache would otherwise coalesce each file into one
	// clean extent), a scratch truncate arms the partial-truncate point,
	// and the defrag drain walks the migrate claim/copy/commit/free chain.
	frag := make([]*pfs.File, 4)
	for i := range frag {
		f, err := fs.Create(dir, fmt.Sprintf("frag%02d.dat", i), 0)
		if err != nil {
			return err
		}
		frag[i] = f
	}
	for off := int64(0); off < 64; off += 8 {
		for i, f := range frag {
			st := core.StreamID{Client: 16 + uint32(i), PID: 0}
			if err := f.Write(st, off, 8); err != nil {
				return err
			}
			if err := f.Fsync(); err != nil {
				return err
			}
		}
	}
	scratch, err := fs.Create(dir, "scratch.dat", 0)
	if err != nil {
		return err
	}
	if err := scratch.Write(core.StreamID{Client: 30, PID: 0}, 0, 48); err != nil {
		return err
	}
	if err := scratch.Fsync(); err != nil {
		return err
	}
	if err := scratch.Truncate(16); err != nil {
		return err
	}
	if _, err := fs.Defrag().Run(); err != nil {
		return err
	}

	// Phase 4 — failover and repair: blackhole one server, append through
	// the outage (fan-out skipping keeps the acked contract on the live
	// copies), revive it, and drain the re-replication engine through the
	// repair crash points.
	if err := fs.CrashOST(1); err != nil {
		return err
	}
	for i, af := range t.acked {
		st := core.StreamID{Client: uint32(i), PID: 0}
		if err := t.appendAcked(af, st, 16); err != nil {
			return err
		}
		if err := t.fsyncAcked(af); err != nil {
			return err
		}
	}
	if err := fs.ReviveOST(1); err != nil {
		return err
	}
	if err := fs.RepairDrain(); err != nil {
		return err
	}

	// Phase 5 — final durable tail: one more acked burst and a closing
	// Sync so the sweep also covers late-life crashes.
	for i, af := range t.acked {
		st := core.StreamID{Client: uint32(i), PID: 0}
		if err := t.appendAcked(af, st, 8); err != nil {
			return err
		}
		if err := t.fsyncAcked(af); err != nil {
			return err
		}
	}
	return fs.Sync()
}

// Recover performs whole-cluster crash recovery. The nil-crash baseline
// completed cleanly, so there is nothing to replay.
func (t *crashTarget) Recover(crash *crashsim.Crash) error {
	if crash == nil {
		return nil
	}
	rep, err := t.fs.CrashRecover()
	t.recovered = rep
	return err
}

// Verify checks every durability invariant after recovery (or after the
// clean baseline): metadata fsck, per-server consistency walk, zero leaks
// once a scrub has run, acknowledged data readable, redundancy restored.
func (t *crashTarget) Verify() []string {
	var v []string
	fs := t.fs
	if fs == nil {
		return []string{"mount was never built"}
	}
	if t.recovered != nil {
		if t.recovered.Mdfs == nil {
			v = append(v, "recovery produced no metadata fsck report")
		} else {
			for _, p := range t.recovered.Mdfs.Problems {
				v = append(v, "mdfs: "+p)
			}
		}
		if !t.recovered.RepairedOK {
			v = append(v, "repair drain did not restore full redundancy")
		}
	} else {
		if rep := fs.MDS().FS().Fsck(); !rep.Clean() {
			for _, p := range rep.Problems {
				v = append(v, "mdfs: "+p)
			}
		}
		if !fs.Replication().FullyReplicated() {
			v = append(v, "baseline finished under-replicated")
		}
	}
	for i := 0; i < fs.OSTs(); i++ {
		cr := fs.OST(i).CheckConsistency()
		for _, p := range cr.Problems {
			v = append(v, fmt.Sprintf("ost%d: %s", i, p))
		}
		// Leaked blocks are legal on a live volume (clipped preallocation
		// windows); after a power-fail scrub they must all be reclaimed.
		if t.recovered != nil && cr.LeakedBlocks != 0 {
			v = append(v, fmt.Sprintf("ost%d: %d blocks leaked after scrub", i, cr.LeakedBlocks))
		}
	}
	for _, af := range t.acked {
		if af.blocks == 0 {
			continue
		}
		err := af.f.Read(0, af.blocks)
		if err != nil && !(errors.Is(err, pfs.ErrStale) && !af.named) {
			v = append(v, fmt.Sprintf("acked data lost: %s blocks [0,%d): %v", af.name, af.blocks, err))
		}
	}
	return v
}

// RunCrashSweep executes the systematic crash-point sweep: a no-crash
// baseline that must reach every registered point, then one
// crash/recover/verify run per (point, tear-mode) pair.
func RunCrashSweep(cfg CrashSweepConfig) (*crashsim.Report, error) {
	points := crashsim.Registry()
	if cfg.Points != nil {
		want := make(map[string]bool, len(cfg.Points))
		for _, name := range cfg.Points {
			want[name] = true
		}
		var sel []crashsim.Point
		for _, p := range points {
			if want[p.Name] {
				sel = append(sel, p)
				delete(want, p.Name)
			}
		}
		for _, name := range cfg.Points {
			if want[name] {
				return nil, fmt.Errorf("workload: unknown crash point %q", name)
			}
		}
		points = sel
	}
	return crashsim.Sweep(
		crashsim.SweepConfig{Seed: cfg.Seed, Points: points, Metrics: cfg.Metrics},
		func() (crashsim.Target, error) { return &crashTarget{cfg: cfg}, nil },
	)
}
