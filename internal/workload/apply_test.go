package workload

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"redbud/internal/mdfs"
	"redbud/internal/pfs"
	"redbud/internal/trace"
)

// throughTrace writes ops in the trace format and reads them back, which
// must lose nothing.
func throughTrace(t *testing.T, ops []trace.Op) []trace.Op {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("read back %d ops, wrote %d", len(back), len(ops))
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Fatalf("op %d read back as %+v, wrote %+v", i, back[i], ops[i])
		}
	}
	return back
}

// TestDriverListsReplay: each metadata driver's applied op list, written as
// a trace, read back and applied to a fresh identical target, ends with the
// same MDS disk counters and, on a mount, the same data-disk counters as
// the driver's own run — no part of the workload lives outside the list.
// The list also runs on the default MiF mount that miftrace replay builds.
// Each data driver's list, through the trace format and measured on a
// fresh mount of the driver's config, gives the driver's own result, field
// for field. The lists together use every op kind.
func TestDriverListsReplay(t *testing.T) {
	meta := DefaultMetaratesConfig(mdfs.LayoutNormal)
	meta.Clients, meta.FilesPerDir = 3, 150
	age := DefaultAgingConfig(mdfs.LayoutEmbedded, 0.3)
	age.MeasureFiles = 100
	pm := DefaultPostMarkConfig()
	pm.Clients, pm.FilesPerClient, pm.TransactionsPerClient = 3, 20, 60
	kt := DefaultKernelTreeConfig()
	kt.Dirs, kt.FilesPerDir = 3, 12
	mount := func() (*Target, error) { return appTarget(pfs.MiF(4)) }
	seen := map[trace.OpKind]bool{}
	for _, tc := range []struct {
		name   string
		target func() (*Target, error)
		run    func(*Target) ([]trace.Op, error)
	}{
		{"metarates", func() (*Target, error) { return metaratesTarget(meta) },
			func(tg *Target) ([]trace.Op, error) { _, ops, err := metarates(meta, tg); return ops, err }},
		{"aging", func() (*Target, error) { return agingTarget(age) },
			func(tg *Target) ([]trace.Op, error) { _, ops, err := aging(age, tg); return ops, err }},
		{"postmark", mount,
			func(tg *Target) ([]trace.Op, error) { _, ops, err := postMark(pm, tg); return ops, err }},
		{"kernel-tree", mount,
			func(tg *Target) ([]trace.Op, error) { _, ops, err := kernelTree(kt, tg); return ops, err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			driven, err := tc.target()
			if err != nil {
				t.Fatal(err)
			}
			ops, err := tc.run(driven)
			if err != nil {
				t.Fatal(err)
			}
			back := throughTrace(t, ops)
			replayed, err := tc.target()
			if err != nil {
				t.Fatal(err)
			}
			if err := Apply(replayed, back); err != nil {
				t.Fatal(err)
			}
			mdsDisk := func(tg *Target) any { return tg.srv.FS().Store().Disk().Stats() }
			if got, want := mdsDisk(replayed), mdsDisk(driven); got != want {
				t.Errorf("MDS disk after the replay %+v, after the run %+v", got, want)
			}
			if driven.mount != nil {
				if got, want := replayed.mount.DataStats(), driven.mount.DataStats(); got != want {
					t.Errorf("data disks after the replay %+v, after the run %+v", got, want)
				}
				if got, want := replayed.mount.DataBusyMax(), driven.mount.DataBusyMax(); got != want {
					t.Errorf("data busy after the replay %d, after the run %d", got, want)
				}
			}
			fs, err := pfs.New(pfs.MiF(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := Apply(MountTarget(fs), back); err != nil {
				t.Errorf("on a MiF mount: %v", err)
			}
			for _, op := range ops {
				seen[op.Kind] = true
			}
		})
	}
	testDataListsReplay(t, seen)
	if kinds := int(trace.OpUse) + 1; len(seen) != kinds { // OpUse is the last kind
		t.Errorf("the lists use %d op kinds, want every one of %d", len(seen), kinds)
	}
}

// testDataListsReplay is TestDriverListsReplay's data half: it adds the
// kinds the lists use to seen.
func testDataListsReplay(t *testing.T, seen map[trace.OpKind]bool) {
	fsCfg := pfs.MiF(4)
	mc := DefaultMicroConfig(2)
	mc.RegionBlocks, mc.Segments = 256, 32
	ic := DefaultIORConfig(8)
	ic.BlocksPerProc, ic.Interference = 128, true
	bc := DefaultBTIOConfig(16)
	bc.Timesteps, bc.Collective = 2, true
	cc := DefaultCacheBenchConfig()
	cc.Files, cc.FileBlocks = 5, 64
	delalloc := pfs.MiF(4).WithPolicy(pfs.PolicyVanilla)
	delalloc.OST.DelayedAllocation = true
	type pressure struct {
		extents  int
		readMBps float64
	}
	for _, tc := range []struct {
		name   string
		gen    func() ([]trace.Op, []int)
		driver func() (any, error)
		replay func([]trace.Op, []int) (any, error)
	}{
		{"micro", func() ([]trace.Op, []int) { return one(microOps(mc)) },
			func() (any, error) { return RunMicro(fsCfg, mc) },
			func(ops []trace.Op, cuts []int) (any, error) { return micro(fsCfg, mc, ops, cuts[0]) }},
		{"ior", func() ([]trace.Op, []int) { return one(iorOps(ic)) },
			func() (any, error) { return RunIOR(fsCfg, ic) },
			func(ops []trace.Op, cuts []int) (any, error) {
				return macro(fsCfg, "IOR", false, int64(ic.Procs)*ic.BlocksPerProc, ops, cuts[0])
			}},
		{"btio", func() ([]trace.Op, []int) { return one(btioOps(bc, 4)) },
			func() (any, error) { return RunBTIO(fsCfg, bc) },
			func(ops []trace.Op, cuts []int) (any, error) {
				return macro(fsCfg, "BTIO", true, ops[0].Count, ops, cuts[0])
			}},
		{"mixedstream", func() ([]trace.Op, []int) { return one(mixedStreamOps()) },
			func() (any, error) { return RunMixedStream(fsCfg) },
			func(ops []trace.Op, cuts []int) (any, error) { return mixedStream(fsCfg, ops, cuts[0]) }},
		{"syncpressure", func() ([]trace.Op, []int) { return one(syncPressureOps(4)) },
			func() (any, error) { e, m, err := RunSyncPressure(delalloc, 4); return pressure{e, m}, err },
			func(ops []trace.Op, cuts []int) (any, error) {
				e, m, err := syncPressure(delalloc, ops, cuts[0])
				return pressure{e, m}, err
			}},
		{"cachebench", func() ([]trace.Op, []int) { return cacheBenchOps(cc) },
			func() (any, error) { return RunCacheBench(fsCfg, cc) },
			func(ops []trace.Op, cuts []int) (any, error) { return cacheBench(fsCfg, cc, ops, cuts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops, cuts := tc.gen()
			want, err := tc.driver()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.replay(throughTrace(t, ops), cuts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("the list replayed gives\n%+v\nthe driver\n%+v", got, want)
			}
			for _, op := range ops {
				seen[op.Kind] = true
			}
		})
	}
}

// one makes a generator's single cut a cut list.
func one(ops []trace.Op, cut int) ([]trace.Op, []int) { return ops, []int{cut} }

// applyLines applies a trace's lines to tg.
func applyLines(tg *Target, lines string) error {
	ops, err := trace.Read(strings.NewReader(lines))
	if err != nil {
		return err
	}
	return Apply(tg, ops)
}

// TestDeleteIfPresent: make clean's delete tolerates a missing name and
// nothing else — a directory's name fails it.
func TestDeleteIfPresent(t *testing.T) {
	tg, err := appTarget(pfs.MiF(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := applyLines(tg, "mkdir 0 d\nfcreate 1 a.o 2\nW 1.1 0 2\nclose\n"); err != nil {
		t.Fatal(err)
	}
	if err := applyLines(tg, "delete-if-present 1 a.o\ndelete-if-present 1 a.o\ndelete-if-present 1 never.o\n"); err != nil {
		t.Fatalf("deleting a present and then missing names: %v", err)
	}
	err = applyLines(tg, "delete-if-present 0 d\n")
	if err == nil || errors.Is(err, mdfs.ErrNotExist) {
		t.Fatalf("deleting a directory's name: %v, want a failure that is not a missing name", err)
	}
	if err := applyLines(tg, "delete 1 never.o\n"); !errors.Is(err, mdfs.ErrNotExist) {
		t.Fatalf("delete of a missing name: %v, want ErrNotExist", err)
	}
}

// TestApplyRejects: an op the target's state cannot run is an error that
// names the op, not a panic.
func TestApplyRejects(t *testing.T) {
	for _, tc := range []struct{ lines, want string }{
		{"W 1.1 0 8\n", "W 1.1 0 8: no file is open"},
		{"close\n", "close: no file is open"},
		{"fcreate 0 a 1\nuse 1\n", "use 1: no open file in slot 1"},
		{"fcreate 0 a 1\nclose\nuse 0\n", "use 0: no open file in slot 0"},
		{"fcreate 0 a 1\nclose\nfsync\n", "fsync: no file is open"},
		{"stat 3 a\n", "stat 3 a: no directory slot 3"},
		{"setlayout 0 4 0\n", "setlayout 0 4 0: no inode slot 0"},
		{"mkdir 0 d\nreaddirplus 1 2\n", "readdirplus 1 2: 0 entries, want 2"},
	} {
		tg, err := appTarget(pfs.MiF(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := applyLines(tg, tc.lines); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: %v, want %q", tc.lines, err, tc.want)
		}
	}
	srv, err := metaratesTarget(DefaultMetaratesConfig(mdfs.LayoutNormal))
	if err != nil {
		t.Fatal(err)
	}
	if err := applyLines(srv, "fcreate 0 a 1\n"); err == nil || !strings.Contains(err.Error(), "needs a mount") {
		t.Errorf("a file op on a bare server: %v", err)
	}
}
