package workload

import (
	"fmt"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// PostMarkConfig parameterizes the PostMark benchmark (Figure 10):
// many small files churned by create/delete/read/append transactions.
// The paper configures "files-counts=100K, transaction-counts=500K and
// transaction-size is equal to file size" across 10 clients; the defaults
// here scale that down while keeping the per-client shape, and the counts
// are flags on cmd/mifbench for full-size runs.
type PostMarkConfig struct {
	// Clients each work in their own directory.
	Clients int
	// FilesPerClient is the initial file-set size per client.
	FilesPerClient int
	// TransactionsPerClient is the transaction count per client.
	TransactionsPerClient int
	// MinFileBlocks/MaxFileBlocks bound the file size distribution.
	MinFileBlocks int64
	MaxFileBlocks int64
	// Seed drives the transaction mix.
	Seed uint64
}

// DefaultPostMarkConfig returns a laptop-scale PostMark.
func DefaultPostMarkConfig() PostMarkConfig {
	return PostMarkConfig{
		Clients:               10,
		FilesPerClient:        100,
		TransactionsPerClient: 500,
		MinFileBlocks:         1,
		MaxFileBlocks:         8,
		Seed:                  11,
	}
}

// AppResult reports one application-style run (PostMark, tar, make,
// make-clean): its total simulated execution time.
type AppResult struct {
	Elapsed sim.Ns
}

// elapsedOf folds the serially-dependent components of an application run:
// the MDS disk, the parallel data disks, and modeled client compute.
func elapsedOf(fs *pfs.FS, compute sim.Ns) sim.Ns {
	return fs.MDS().FS().Store().Disk().Stats().BusyNs + fs.DataBusyMax() + compute
}

// appTarget mounts fsCfg with synchronous metadata writes, as the
// application runs use it.
func appTarget(fsCfg pfs.Config) (*Target, error) {
	fsCfg.MDS.FS.SyncWrites = true
	fs, err := pfs.New(fsCfg)
	if err != nil {
		return nil, err
	}
	return MountTarget(fs), nil
}

// RunPostMark executes PostMark against a fresh mount.
func RunPostMark(fsCfg pfs.Config, cfg PostMarkConfig) (AppResult, error) {
	if cfg.Clients <= 0 || cfg.FilesPerClient <= 0 || cfg.MinFileBlocks <= 0 || cfg.MaxFileBlocks < cfg.MinFileBlocks {
		return AppResult{}, fmt.Errorf("workload: bad postmark config %+v", cfg)
	}
	t, err := appTarget(fsCfg)
	if err != nil {
		return AppResult{}, err
	}
	res, _, err := postMark(cfg, t)
	return res, err
}

// postMark applies a PostMark run to t and returns the ops it applied.
func postMark(cfg PostMarkConfig, t *Target) (AppResult, []trace.Op, error) {
	ops := postMarkOps(cfg)
	if err := Apply(t, ops); err != nil {
		return AppResult{}, ops, err
	}
	return AppResult{Elapsed: elapsedOf(t.mount, 0)}, ops, nil
}

// postMarkOps generates a PostMark run: each client's directory (slots 1
// to Clients) and initial file set, then the transactions, interleaved
// across clients, and a closing sync.
func postMarkOps(cfg PostMarkConfig) []trace.Op {
	rng := sim.NewRand(cfg.Seed)
	type pmFile struct {
		name string
		size int64
	}
	var ops []trace.Op
	files := make([][]pmFile, cfg.Clients)
	for c := range files {
		ops = append(ops, trace.Op{Kind: trace.OpMkdir, Name: fmt.Sprintf("pm%02d", c)})
	}
	fileSize := func() int64 { return cfg.MinFileBlocks + rng.Int63n(cfg.MaxFileBlocks-cfg.MinFileBlocks+1) }
	stream := func(c int) core.StreamID { return core.StreamID{Client: uint32(c), PID: 1} }
	seq := 0
	createFile := func(c int) {
		name := fmt.Sprintf("pm%07d", seq)
		seq++
		size := fileSize()
		ops = append(ops, trace.Op{Kind: trace.OpCreateFile, Slot: int64(c + 1), Name: name, Count: size},
			trace.Op{Kind: trace.OpWrite, Stream: stream(c), Count: size}, trace.Op{Kind: trace.OpClose})
		files[c] = append(files[c], pmFile{name: name, size: size})
	}

	// Initial file set.
	for c := 0; c < cfg.Clients; c++ {
		for i := 0; i < cfg.FilesPerClient; i++ {
			createFile(c)
		}
	}
	// Transactions: half read-or-append, half create-or-delete, the
	// PostMark mix, interleaved across clients.
	jitteredArrival(rng.Fork(), cfg.Clients, int64(cfg.TransactionsPerClient),
		func(c int, _ int64) {
			kind := rng.Intn(4)
			if kind == 0 || len(files[c]) == 0 {
				createFile(c)
				return
			}
			i := rng.Intn(len(files[c]))
			pf := &files[c][i]
			switch kind {
			case 1: // delete
				ops = append(ops, trace.Op{Kind: trace.OpDelete, Slot: int64(c + 1), Name: pf.name})
				*pf = files[c][len(files[c])-1]
				files[c] = files[c][:len(files[c])-1]
				return
			case 2: // read whole file (transaction size = file size)
				ops = append(ops, trace.Op{Kind: trace.OpOpen, Slot: int64(c + 1), Name: pf.name},
					trace.Op{Kind: trace.OpRead, Count: pf.size})
			default: // append one file-size worth of data
				n := fileSize()
				ops = append(ops, trace.Op{Kind: trace.OpOpen, Slot: int64(c + 1), Name: pf.name},
					trace.Op{Kind: trace.OpWrite, Stream: stream(c), Blk: pf.size, Count: n})
				pf.size += n
			}
			ops = append(ops, trace.Op{Kind: trace.OpClose})
		})
	return append(ops, trace.Op{Kind: trace.OpSync})
}
