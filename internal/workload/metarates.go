package workload

import (
	"fmt"

	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/sim"
	"redbud/internal/stats"
	"redbud/internal/telemetry"
)

// MetaratesConfig parameterizes the Metarates runs of Figure 8: "an MPI
// application that coordinated file system accesses from multiple clients
// ... each client worked in its own directory; each single directory
// contained 5000 subfiles", against an MDS "configured to use synchronous
// writes for metadata integrity maintenance" with a single disk.
type MetaratesConfig struct {
	// Clients is the number of concurrent metadata clients (10 in the
	// paper).
	Clients int
	// FilesPerDir is the per-directory file count (5000 in the paper;
	// Figure 8(c) sweeps it).
	FilesPerDir int
	// Layout selects the MDS directory placement under test.
	Layout mdfs.Layout
	// Htree enables the ext4-style name index (the Lustre baseline).
	Htree bool
	// Seed drives the client interleaving.
	Seed uint64
	// Metrics, when set, receives the MDS server's telemetry (labeled by
	// workload and config); Trace, when set, records the server's spans
	// and advances the trace clock by the simulated work.
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
}

// DefaultMetaratesConfig returns the paper's Metarates shape at a
// laptop-friendly directory size.
func DefaultMetaratesConfig(layout mdfs.Layout) MetaratesConfig {
	return MetaratesConfig{
		Clients:     10,
		FilesPerDir: 5000, // the paper's directory size
		Layout:      layout,
		Seed:        1,
	}
}

// PhaseResult reports one Metarates workload phase.
type PhaseResult struct {
	Ops          int64
	DiskRequests int64 // block-layer requests, the Figure 8 bar metric
	Elapsed      sim.Ns
	OpsPerSec    float64
	// P50Ns and P99Ns are per-operation latency percentiles (simulated
	// MDS-disk time attributed to each op). Checkpoint bursts land on
	// the op that triggered them, which is what a client would observe.
	P50Ns sim.Ns
	P99Ns sim.Ns
}

// MetaratesResult reports a full Metarates run.
type MetaratesResult struct {
	Config  string
	Create  PhaseResult
	Utime   PhaseResult
	Readdir PhaseResult // the readdir-stat workload
	Delete  PhaseResult
}

// metaratesName labels the system under test.
func metaratesName(cfg MetaratesConfig) string {
	if cfg.Layout == mdfs.LayoutEmbedded {
		return "embedded"
	}
	if cfg.Htree {
		return "lustre-like"
	}
	return "normal"
}

// RunMetarates executes the four Metarates workloads against a fresh MDS.
func RunMetarates(cfg MetaratesConfig) (MetaratesResult, error) {
	if cfg.Clients <= 0 || cfg.FilesPerDir <= 0 {
		return MetaratesResult{}, fmt.Errorf("workload: bad metarates config %+v", cfg)
	}
	mcfg := mds.DefaultConfig(cfg.Layout)
	mcfg.FS.SyncWrites = true
	mcfg.FS.Htree = cfg.Htree
	srv, err := mds.New(mcfg)
	if err != nil {
		return MetaratesResult{}, err
	}
	if cfg.Metrics != nil {
		labels := telemetry.Labels{"workload": "metarates", "config": metaratesName(cfg)}
		srv.Instrument(cfg.Metrics, labels.With("layer", "mds"))
	}
	if cfg.Trace != nil {
		srv.SetTracer(cfg.Trace)
	}
	fs := srv.FS()

	dirs := make([]inode.Ino, cfg.Clients)
	for c := range dirs {
		d, err := srv.Mkdir(srv.Root(), fmt.Sprintf("client%02d", c))
		if err != nil {
			return MetaratesResult{}, err
		}
		dirs[c] = d
	}
	inos := make([][]inode.Ino, cfg.Clients)
	for c := range inos {
		inos[c] = make([]inode.Ino, cfg.FilesPerDir)
	}
	name := func(i int64) string { return fmt.Sprintf("f%06d", i) }

	result := MetaratesResult{Config: metaratesName(cfg)}
	perClient := func(int) int64 { return int64(cfg.FilesPerDir) }

	// measure wraps one phase: cold caches, zeroed counters, per-op
	// latency distribution. Phase bodies wrap each operation in timedOp
	// to attribute its disk time.
	var opLat *stats.Dist
	timedOp := func(op func() error) error {
		before := fs.Store().Disk().Stats().BusyNs
		if err := op(); err != nil {
			return err
		}
		opLat.Add(fs.Store().Disk().Stats().BusyNs - before)
		return nil
	}
	measure := func(out *PhaseResult, run func() error) error {
		if err := fs.Sync(); err != nil {
			return err
		}
		fs.Store().DropCaches()
		opLat = &stats.Dist{}
		before := fs.Store().Disk().Stats()
		if err := run(); err != nil {
			return err
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		delta := fs.Store().Disk().Stats().Sub(before)
		out.DiskRequests = delta.Requests
		out.Elapsed = delta.BusyNs
		if out.Elapsed > 0 {
			out.OpsPerSec = float64(out.Ops) / sim.Seconds(out.Elapsed)
		}
		if opLat.Count() > 0 {
			out.P50Ns = opLat.Percentile(50)
			out.P99Ns = opLat.Percentile(99)
		}
		return nil
	}

	// Phase 1: create.
	result.Create.Ops = int64(cfg.Clients) * int64(cfg.FilesPerDir)
	rng := sim.NewRand(cfg.Seed)
	err = measure(&result.Create, func() error {
		return jitteredArrival(rng, cfg.Clients, perClient, func(c int, idx int64) error {
			return timedOp(func() error {
				ino, err := srv.Create(dirs[c], name(idx))
				if err != nil {
					return err
				}
				inos[c][idx] = ino
				return nil
			})
		})
	})
	if err != nil {
		return result, err
	}

	// Phase 2: utime over every file, by path as the utility would.
	result.Utime.Ops = result.Create.Ops
	err = measure(&result.Utime, func() error {
		return jitteredArrival(rng, cfg.Clients, perClient, func(c int, idx int64) error {
			return timedOp(func() error {
				ino, err := srv.Lookup(dirs[c], name(idx))
				if err != nil {
					return err
				}
				return srv.Utime(ino)
			})
		})
	})
	if err != nil {
		return result, err
	}

	// Phase 3: readdir-stat (ls -l) over every directory.
	result.Readdir.Ops = result.Create.Ops
	err = measure(&result.Readdir, func() error {
		for c := 0; c < cfg.Clients; c++ {
			err := timedOp(func() error {
				recs, err := srv.ReaddirPlus(dirs[c])
				if err != nil {
					return err
				}
				if len(recs) != cfg.FilesPerDir {
					return fmt.Errorf("workload: readdirplus returned %d records, want %d", len(recs), cfg.FilesPerDir)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return result, err
	}

	// Phase 4: delete every file.
	result.Delete.Ops = result.Create.Ops
	err = measure(&result.Delete, func() error {
		return jitteredArrival(rng, cfg.Clients, perClient, func(c int, idx int64) error {
			return timedOp(func() error { return srv.Unlink(dirs[c], name(idx)) })
		})
	})
	if err != nil {
		return result, err
	}
	return result, nil
}
