package workload

import (
	"fmt"
	"strconv"

	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
	"redbud/internal/trace"
)

// AgingConfig parameterizes the Figure 9 experiment: "to achieve aging,
// our program created and deleted a large number of files. After reaching
// the desired file system utilization for the first time, our program
// executed a number of metadata access with the same distribution."
type AgingConfig struct {
	// TargetUtilization is the device fill fraction to churn to.
	TargetUtilization float64
	// Layout and Htree select the system under test.
	Layout mdfs.Layout
	Htree  bool
	// ChurnDirs is the number of directories the churn spreads over.
	ChurnDirs int
	// MeasureFiles is the number of creations/deletions measured after
	// aging.
	MeasureFiles int
	// Seed drives the churn.
	Seed uint64
	// Metrics, when set, receives the MDS server's telemetry (labeled by
	// workload and config); Trace, when set, records the server's spans
	// and advances the trace clock by the simulated work.
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
}

// DefaultAgingConfig returns the Figure 9 shape.
func DefaultAgingConfig(layout mdfs.Layout, target float64) AgingConfig {
	return AgingConfig{
		TargetUtilization: target,
		Layout:            layout,
		ChurnDirs:         8,
		MeasureFiles:      1000,
		Seed:              7,
	}
}

// AgingResult reports one aging run.
type AgingResult struct {
	CreatePerSec float64
	DeletePerSec float64
}

// agingTarget builds a small MDS device so churn reaches high utilization
// quickly.
func agingTarget(cfg AgingConfig) (*Target, error) {
	mcfg := mds.DefaultConfig(cfg.Layout)
	mcfg.FS.Blocks = 1 << 15 // 128 MiB device
	mcfg.FS.JournalBlocks = 512
	mcfg.FS.GroupBlocks = 8192
	mcfg.FS.InodesPerGroup = 8192
	mcfg.FS.CacheBlocks = 1024
	mcfg.FS.SyncWrites = true
	mcfg.FS.Htree = cfg.Htree
	return serverTarget(mcfg, cfg.Metrics, cfg.Trace, telemetry.Labels{"workload": "aging",
		"config": metaratesName(cfg.Layout, cfg.Htree), "util": fmt.Sprintf("%.2f", cfg.TargetUtilization)})
}

// RunAging churns the file system to the target utilization, then measures
// creation and deletion throughput.
func RunAging(cfg AgingConfig) (AgingResult, error) {
	if cfg.TargetUtilization < 0 || cfg.TargetUtilization >= 0.95 {
		return AgingResult{}, fmt.Errorf("workload: bad target utilization %g", cfg.TargetUtilization)
	}
	t, err := agingTarget(cfg)
	if err != nil {
		return AgingResult{}, err
	}
	res, _, err := aging(cfg, t)
	return res, err
}

// aging applies an aging run to t and returns the ops it applied. The
// churn is pure in the config; only where it stops depends on the device,
// whose utilization the driver checks between churn steps.
func aging(cfg AgingConfig, t *Target) (AgingResult, []trace.Op, error) {
	g := churn{rng: sim.NewRand(cfg.Seed), dirs: make([]int64, cfg.ChurnDirs), names: make([]string, cfg.ChurnDirs)}
	var ops []trace.Op
	for i := range g.dirs {
		g.dirs[i], g.names[i] = int64(i+1), fmt.Sprintf("churn%d", i)
		ops = append(ops, trace.Op{Kind: trace.OpMkdir, Name: g.names[i]})
	}
	g.slots = int64(cfg.ChurnDirs)
	fs := t.srv.FS()
	if err := Apply(t, ops); err != nil {
		return AgingResult{}, ops, err
	}
	for n := len(ops); fs.Utilization() < cfg.TargetUtilization; n = len(ops) {
		if ops = g.step(ops); g.seq > 1<<20 {
			return AgingResult{}, ops, fmt.Errorf("workload: churn did not converge to %g (at %g)",
				cfg.TargetUtilization, fs.Utilization())
		}
		if err := Apply(t, ops[n:]); err != nil {
			return AgingResult{}, ops, err
		}
	}

	// Measurement: create MeasureFiles fresh files in a fresh directory,
	// then delete them, each phase starting cold.
	meas := []trace.Op{{Kind: trace.OpSync}, {Kind: trace.OpDropCaches}, {Kind: trace.OpMkdir, Name: "measure"}}
	cuts := []int{len(meas)}
	names := make([]string, cfg.MeasureFiles)
	for i := range names {
		names[i] = fmt.Sprintf("m%05d", i)
	}
	for _, kind := range []trace.OpKind{trace.OpCreate, trace.OpUnlink} {
		for _, name := range names {
			meas = append(meas, trace.Op{Kind: kind, Slot: g.slots + 1, Name: name})
		}
		meas = append(meas, trace.Op{Kind: trace.OpSync})
		cuts = append(cuts, len(meas))
	}
	ops = append(ops, meas...)
	var busy [3]sim.Ns
	dev := fs.Store().Disk()
	if err := applyPhases(t, meas, cuts, func(i int) { busy[i] = dev.Stats().BusyNs }); err != nil {
		return AgingResult{}, ops, err
	}
	n := int64(cfg.MeasureFiles)
	return AgingResult{CreatePerSec: perSec(n, busy[1]-busy[0]), DeletePerSec: perSec(n, busy[2]-busy[1])}, ops, nil
}

// churn generates aging's churn one step at a time: files carrying
// fragmented layout mappings (forcing spill-block allocations), a random
// share of them deleted, and now and then a churn directory retired.
type churn struct {
	rng   *sim.Rand
	live  []liveFile
	dirs  []int64  // each churn directory's slot
	names []string // and name
	slots int64    // directory slots taken
	seq   int      // files created, each taking the next inode slot
	buf   []byte   // name scratch: a name costs only its string
}

// appendPadded appends n in decimal, zero-padded to width digits.
func appendPadded(b []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// liveFile is a churn file not yet deleted.
type liveFile struct {
	dir  int
	name string
}

// step appends one churn step to ops.
func (g *churn) step(ops []trace.Op) []trace.Op {
	// Churn leans toward creation so utilization converges; the
	// deletions and directory retirements leave the holes.
	switch {
	case len(g.live) > 0 && g.rng.Intn(100) < 38:
		i := g.rng.Intn(len(g.live))
		f := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return append(ops, trace.Op{Kind: trace.OpUnlink, Slot: g.dirs[f.dir], Name: f.name})
	case g.seq > 0 && g.seq%8000 == 0:
		// Retire one churn directory entirely and recreate it: its
		// freed content runs become mid-sized holes.
		di := g.rng.Intn(len(g.dirs))
		kept := g.live[:0]
		for _, f := range g.live {
			if f.dir != di {
				kept = append(kept, f)
				continue
			}
			ops = append(ops, trace.Op{Kind: trace.OpUnlink, Slot: g.dirs[di], Name: f.name})
		}
		g.live = kept
		ops = append(ops, trace.Op{Kind: trace.OpRmdir, Name: g.names[di]})
		g.buf = strconv.AppendInt(append(g.buf[:0], "churn"...), int64(di), 10)
		g.buf = strconv.AppendInt(append(g.buf, '.'), int64(g.seq), 10)
		g.names[di] = string(g.buf)
		g.slots++
		g.dirs[di] = g.slots
		ops = append(ops, trace.Op{Kind: trace.OpMkdir, Name: g.names[di]})
	}
	d := g.rng.Intn(len(g.dirs))
	g.buf = appendPadded(append(g.buf[:0], 'c'), g.seq, 7)
	name := string(g.buf)
	g.live = append(g.live, liveFile{dir: d, name: name})
	g.seq++
	// A fragmented mapping large enough to occupy both spill blocks, so
	// churn moves real space.
	return append(ops, trace.Op{Kind: trace.OpCreate, Slot: g.dirs[d], Name: name},
		trace.Op{Kind: trace.OpSetLayout, Slot: int64(g.seq - 1), Count: int64(140 + g.rng.Intn(110)), Blk: int64(g.seq * 512)})
}
