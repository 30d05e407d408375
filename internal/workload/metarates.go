package workload

import (
	"fmt"

	"redbud/internal/disk"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
	"redbud/internal/trace"
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
	DiskRequests int64 // block-layer requests, the Figure 8 bar metric
	OpsPerSec    float64
}

// MetaratesResult reports a full Metarates run.
type MetaratesResult struct {
	Create  PhaseResult
	Utime   PhaseResult
	Readdir PhaseResult // the readdir-stat workload
	Delete  PhaseResult
}

// metaratesName labels the system under test.
func metaratesName(layout mdfs.Layout, htree bool) string {
	if layout == mdfs.LayoutEmbedded {
		return "embedded"
	}
	if htree {
		return "lustre-like"
	}
	return "normal"
}

// serverTarget builds a fresh MDS server as a target, publishing its
// telemetry into reg under labels and recording its spans into tr when
// those are set.
func serverTarget(mcfg mds.Config, reg *telemetry.Registry, tr *telemetry.Tracer, labels telemetry.Labels) (*Target, error) {
	srv, err := mds.New(mcfg)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		srv.Instrument(reg, labels.With("layer", "mds"))
	}
	if tr != nil {
		srv.SetTracer(tr)
	}
	return ServerTarget(srv), nil
}

// metaratesTarget builds the MDS a Metarates run drives.
func metaratesTarget(cfg MetaratesConfig) (*Target, error) {
	mcfg := mds.DefaultConfig(cfg.Layout)
	mcfg.FS.SyncWrites = true
	mcfg.FS.Htree = cfg.Htree
	return serverTarget(mcfg, cfg.Metrics, cfg.Trace,
		telemetry.Labels{"workload": "metarates", "config": metaratesName(cfg.Layout, cfg.Htree)})
}

// RunMetarates executes the four Metarates workloads against a fresh MDS.
func RunMetarates(cfg MetaratesConfig) (MetaratesResult, error) {
	if cfg.Clients <= 0 || cfg.FilesPerDir <= 0 {
		return MetaratesResult{}, fmt.Errorf("workload: bad metarates config %+v", cfg)
	}
	t, err := metaratesTarget(cfg)
	if err != nil {
		return MetaratesResult{}, err
	}
	res, _, err := metarates(cfg, t)
	return res, err
}

// metarates applies a Metarates run to t, measuring each phase's MDS disk
// work, and returns the ops it applied.
func metarates(cfg MetaratesConfig, t *Target) (MetaratesResult, []trace.Op, error) {
	ops, cuts := metaratesOps(cfg)
	dev := t.srv.FS().Store().Disk()
	snaps := make([]disk.Stats, len(cuts))
	if err := applyPhases(t, ops, cuts, func(i int) { snaps[i] = dev.Stats() }); err != nil {
		return MetaratesResult{}, ops, err
	}
	var res MetaratesResult
	for p, out := range []*PhaseResult{&res.Create, &res.Utime, &res.Readdir, &res.Delete} {
		delta := snaps[2*p+1].Sub(snaps[2*p])
		out.DiskRequests = delta.Requests
		out.OpsPerSec = perSec(int64(cfg.Clients)*int64(cfg.FilesPerDir), delta.BusyNs)
	}
	return res, ops, nil
}

// metaratesOps generates a Metarates run: the client directories (slots 1
// to Clients), then the create, utime, readdir-stat and delete phases.
// Each phase opens with a sync and a cache drop and closes with a sync, so
// it starts cold; its measured ops lie between cuts[2p] and cuts[2p+1].
func metaratesOps(cfg MetaratesConfig) (ops []trace.Op, cuts []int) {
	ops = make([]trace.Op, 0, 3*cfg.Clients*cfg.FilesPerDir+2*cfg.Clients+12) // the whole list
	for c := 0; c < cfg.Clients; c++ {
		ops = append(ops, trace.Op{Kind: trace.OpMkdir, Name: fmt.Sprintf("client%02d", c)})
	}
	names := make([]string, cfg.FilesPerDir)
	for i := range names {
		names[i] = fmt.Sprintf("f%06d", i)
	}
	rng := sim.NewRand(cfg.Seed)
	for _, kind := range []trace.OpKind{trace.OpCreate, trace.OpUtime, trace.OpReaddirPlus, trace.OpUnlink} {
		ops = append(ops, trace.Op{Kind: trace.OpSync}, trace.Op{Kind: trace.OpDropCaches})
		cuts = append(cuts, len(ops))
		if kind == trace.OpReaddirPlus {
			// readdir-stat (ls -l) over every directory.
			for c := int64(1); c <= int64(cfg.Clients); c++ {
				ops = append(ops, trace.Op{Kind: kind, Slot: c, Count: int64(cfg.FilesPerDir)})
			}
		} else {
			// Every client issues one op per file of its directory, the
			// clients interleaved in a jittered arrival order. utime goes
			// by path, as the utility would: a lookup, then the utime.
			jitteredArrival(rng, cfg.Clients, int64(cfg.FilesPerDir), func(c int, i int64) {
				ops = append(ops, trace.Op{Kind: kind, Slot: int64(c + 1), Name: names[i]})
			})
		}
		ops = append(ops, trace.Op{Kind: trace.OpSync})
		cuts = append(cuts, len(ops))
	}
	return ops, cuts
}
