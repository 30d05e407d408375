package mdfs

import (
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/journal"
)

// The tests in this file hold the rule that an operation commits or leaves
// no trace: a failed operation leaves the mount exactly as it was before,
// blocks and in-memory state alike, and a free becomes durable only with
// its commit.

// abortLayout is one mount shape of the failed-operation matrix.
type abortLayout struct {
	name   string
	layout Layout
	htree  bool
}

var abortLayouts = []abortLayout{
	{"normal", LayoutNormal, false},
	{"htree", LayoutNormal, true},
	{"embedded", LayoutEmbedded, false},
}

// abortConfig is a three-group device small enough to read whole for a
// snapshot. Batched mounts commit only when told to, so the set-up's
// writes are all in the open transaction when the operation runs and
// the savepoint's pre-images are what an abort rests on.
func abortConfig(l abortLayout, sync bool) Config {
	cfg := DefaultConfig(l.layout)
	cfg.Htree = l.htree
	cfg.SyncWrites = sync
	cfg.CommitEvery = 1 << 20
	cfg.JournalBlocks = 256
	cfg.TableBlocks = 1
	cfg.InodesPerGroup = 256
	cfg.GroupBlocks = 512
	cfg.Blocks = 1 + 256 + 1 + 3*512
	return cfg
}

// abortMount is the set-up every operation of the matrix starts from:
// directories a and b each fill exactly one entry block (normal) or their
// preallocated content (embedded), so the next entry either takes grows
// it; a/big has a two-block spill chain; /e is empty.
type abortMount struct {
	fs   *FS
	a, b inode.Ino
	f3   inode.Ino // a/f003, a file with an inline mapping
}

func newAbortMount(t *testing.T, l abortLayout, sync bool) *abortMount {
	t.Helper()
	fs, err := New(abortConfig(l, sync))
	if err != nil {
		t.Fatal(err)
	}
	m := &abortMount{fs: fs}
	must := func(ino inode.Ino, err error) inode.Ino {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ino
	}
	m.a = must(fs.Mkdir(fs.Root(), "a"))
	m.b = must(fs.Mkdir(fs.Root(), "b"))
	must(fs.Mkdir(fs.Root(), "e"))
	big := must(fs.Create(m.a, "big"))
	if err := fs.SetLayout(big, units(inode.InlineExtents+fs.extentsPerSpill()+1)); err != nil {
		t.Fatal(err)
	}
	full := 4 * int(fs.geo.InodesPerBlock) // DirPreallocBlocks of records
	if l.layout == LayoutNormal {
		full = fs.direntsPerBlock()
	}
	for i := 0; i < full-1; i++ {
		must(fs.Create(m.a, fmt.Sprintf("f%03d", i)))
		must(fs.Create(m.b, fmt.Sprintf("f%03d", i)))
	}
	must(fs.Create(m.b, "last"))
	m.f3 = must(fs.Lookup(m.a, "f003"))
	if err := fs.SetLayout(m.f3, units(3)); err != nil {
		t.Fatal(err)
	}
	return m
}

// units builds a layout mapping of n single-block extents.
func units(n int) []extent.Extent {
	out := make([]extent.Extent, n)
	for i := range out {
		out[i] = extent.Extent{Logical: int64(i), Physical: int64(2 * i), Count: 1}
	}
	return out
}

// abortOps is the operation axis of the matrix.
var abortOps = []struct {
	name string
	run  func(m *abortMount) error
}{
	{"create", func(m *abortMount) error { _, err := m.fs.Create(m.a, "new"); return err }},
	{"mkdir", func(m *abortMount) error { _, err := m.fs.Mkdir(m.a, "newdir"); return err }},
	{"rename-within", func(m *abortMount) error { _, err := m.fs.Rename(m.a, "f001", m.a, "g001"); return err }},
	{"rename-across", func(m *abortMount) error { _, err := m.fs.Rename(m.a, "f001", m.b, "g001"); return err }},
	{"rename-dir", func(m *abortMount) error { _, err := m.fs.Rename(m.fs.Root(), "e", m.a, "e2"); return err }},
	{"unlink", func(m *abortMount) error { return m.fs.Unlink(m.a, "big") }},
	{"rmdir", func(m *abortMount) error { return m.fs.Rmdir(m.fs.Root(), "e") }},
	{"setlayout-spill", func(m *abortMount) error {
		return m.fs.SetLayout(m.f3, units(inode.InlineExtents+2*m.fs.extentsPerSpill()+1))
	}},
}

// mountState is everything a failed operation must leave as it found it.
type mountState struct {
	blocks    []uint64 // each block's content hash, through the store's view
	runs      []alloc.Range
	ibitmap   [][]uint64
	inodeFree []int64
	nextDir   uint32
	renamed   map[inode.Ino]inode.Ino
	dirs      map[inode.Ino]dirSnapshot
}

// dirSnapshot is one directory's in-memory state and what it lists.
type dirSnapshot struct {
	Names        []string
	Stats        []inode.Inode
	Parent       inode.Ino
	DirID        uint32
	RecBlock     int64
	RecOff       int
	Content      []alloc.Range
	NextSlot     uint32
	FreeSlots    []uint32
	ExtentUnits  int64
	DirentBlocks []int64
	DirentMap    []extent.Extent
	Slots        []int
}

var snapSeed = maphash.MakeSeed()

func snapshotMount(t *testing.T, fs *FS) mountState {
	t.Helper()
	st := mountState{
		runs:      fs.alloc.AppendAllocatedRuns(nil),
		inodeFree: slices.Clone(fs.inodeFree),
		nextDir:   fs.nextDir,
		renamed:   maps.Clone(fs.renamed),
		dirs:      map[inode.Ino]dirSnapshot{},
	}
	view := fs.store.View()
	for b := int64(0); b < fs.cfg.Blocks; b++ {
		st.blocks = append(st.blocks, maphash.Bytes(snapSeed, view.Read(b)))
	}
	for _, words := range fs.ibitmap {
		st.ibitmap = append(st.ibitmap, slices.Clone(words))
	}
	for ino, d := range fs.dirs {
		ds := dirSnapshot{
			Names: d.names.names(), Parent: d.parent, DirID: d.dirID,
			RecBlock: d.recBlock, RecOff: d.recOff,
			Content: clone(d.content), NextSlot: d.nextSlot, FreeSlots: clone(d.freeSlots),
			ExtentUnits: d.extentUnits, DirentBlocks: clone(d.direntBlocks), DirentMap: clone(d.direntMap),
		}
		for _, name := range ds.Names {
			rec, err := fs.Stat(d.names.byName[name].ino)
			if err != nil {
				t.Fatalf("stat %q: %v", name, err)
			}
			ds.Stats = append(ds.Stats, rec)
		}
		for i := 0; i < 64*len(d.slots.words); i++ {
			if d.slots.words[i/64]&(1<<uint(i%64)) != 0 {
				ds.Slots = append(ds.Slots, i)
			}
		}
		st.dirs[ino] = ds
	}
	return st
}

// clone copies s, an empty s as nil: a truncated list equals one never grown.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// diffMount reports the first difference between two snapshots.
func diffMount(a, b mountState) string {
	for i := range a.blocks {
		if a.blocks[i] != b.blocks[i] {
			return fmt.Sprintf("block %d changed", i)
		}
	}
	switch {
	case !reflect.DeepEqual(a.runs, b.runs):
		return fmt.Sprintf("allocated runs %v, were %v", b.runs, a.runs)
	case !reflect.DeepEqual(a.ibitmap, b.ibitmap) || !reflect.DeepEqual(a.inodeFree, b.inodeFree):
		return "inode bitmap changed"
	case a.nextDir != b.nextDir:
		return fmt.Sprintf("nextDir %d, was %d", b.nextDir, a.nextDir)
	case !reflect.DeepEqual(a.renamed, b.renamed):
		return fmt.Sprintf("renamed %v, was %v", b.renamed, a.renamed)
	case len(a.dirs) != len(b.dirs):
		return fmt.Sprintf("%d directories, were %d", len(b.dirs), len(a.dirs))
	}
	for ino, da := range a.dirs {
		db, ok := b.dirs[ino]
		if !ok {
			return fmt.Sprintf("directory %v gone", ino)
		}
		va, vb := reflect.ValueOf(da), reflect.ValueOf(db)
		for f := 0; f < va.NumField(); f++ {
			if !reflect.DeepEqual(va.Field(f).Interface(), vb.Field(f).Interface()) {
				return fmt.Sprintf("directory %v: %s %+v, was %+v", ino, va.Type().Field(f).Name, vb.Field(f), va.Field(f))
			}
		}
	}
	return ""
}

// soakBlocks allocates every free block but leave, lowest first, and
// returns the runs it took.
func soakBlocks(t *testing.T, fs *FS, leave int64) []alloc.Range {
	t.Helper()
	var taken []alloc.Range
	for fs.alloc.FreeBlocks() > leave {
		start, got, err := fs.alloc.AllocNear(0, 0, fs.alloc.FreeBlocks()-leave)
		if err != nil {
			t.Fatal(err)
		}
		taken = append(taken, alloc.Range{Start: start, Count: got})
	}
	return taken
}

// failCommit makes the next operation's commit fail — its transaction no
// longer fits the journal — and returns a function that undoes that.
func failCommit(fs *FS) func() {
	good := fs.store.jnl
	fs.store.jnl = journal.New(fs.store.d, fs.geo.JournalStart, 2, fs.store.applyCheckpoint)
	fs.sinceSync = fs.cfg.CommitEvery - 1
	return func() { fs.store.jnl = good }
}

// soakInodes marks every free inode slot used and returns a function that
// gives them back.
func soakInodes(fs *FS) func() {
	saved := make([][]uint64, len(fs.ibitmap))
	free := slices.Clone(fs.inodeFree)
	for g, words := range fs.ibitmap {
		saved[g] = slices.Clone(words)
		for w := range words {
			words[w] = ^uint64(0)
		}
		fs.inodeFree[g] = 0
	}
	return func() {
		for g := range fs.ibitmap {
			copy(fs.ibitmap[g], saved[g])
		}
		copy(fs.inodeFree, free)
	}
}

// checkFailed asserts that a failed operation left the mount as before,
// then undoes the soak and requires the retried operation to succeed on a
// clean mount.
func checkFailed(t *testing.T, m *abortMount, before mountState, err error, release func(), retry func(*abortMount) error) {
	t.Helper()
	if d := diffMount(before, snapshotMount(t, m.fs)); d != "" {
		t.Fatalf("the failed operation (%v) left a trace: %s", err, d)
	}
	release()
	if err := retry(m); err != nil {
		t.Fatalf("retry once space is back: %v", err)
	}
	checkClean(t, m.fs)
}

func checkClean(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// TestFailedOpLeavesNoTrace runs every mutating operation on every layout,
// batched and synchronous, with allocation k failing for each k the
// operation reaches — the allocator soaked so that exactly k-1 blocks are
// free — then with its commit failing, and, on the normal layout, with
// the inode bitmap full. Each failure must leave every block, the
// allocator, the inode bitmaps, every directory's listing, records and
// bookkeeping, and nextDir as they were.
// Two more failures follow: a Mkdir into a full directory table, and the
// round-robin out-of-space probe.
func TestFailedOpLeavesNoTrace(t *testing.T) {
	t.Run("matrix", testFailedOpMatrix)
	t.Run("full-table", testMkdirWithFullTable)
	t.Run("round-robin", testRoundRobinOutOfSpace)
}

func testFailedOpMatrix(t *testing.T) {
	for _, l := range abortLayouts {
		for _, sync := range []bool{false, true} {
			for _, op := range abortOps {
				t.Run(fmt.Sprintf("%s/sync=%v/%s", l.name, sync, op.name), func(t *testing.T) {
					failures := 0
					for k := int64(1); ; k++ {
						m := newAbortMount(t, l, sync)
						soaked := soakBlocks(t, m.fs, k-1)
						before := snapshotMount(t, m.fs)
						release := func() {
							for _, r := range soaked {
								if err := m.fs.alloc.Free(r); err != nil {
									t.Fatal(err)
								}
							}
						}
						err := op.run(m)
						if err == nil {
							release()
							checkClean(t, m.fs)
							break
						}
						failures++
						checkFailed(t, m, before, err, release, op.run)
						if k > 64 {
							t.Fatal("the operation still fails with 64 free blocks")
						}
					}
					// The commit fails: every change the operation made,
					// not just those before an allocation, is rewound.
					m := newAbortMount(t, l, sync)
					before := snapshotMount(t, m.fs)
					release := failCommit(m.fs)
					err := op.run(m)
					if err == nil {
						t.Fatal("succeeded although its commit cannot")
					}
					failures++
					checkFailed(t, m, before, err, release, op.run)
					if l.layout == LayoutNormal && (op.name == "create" || op.name == "mkdir") {
						m := newAbortMount(t, l, sync)
						release := soakInodes(m.fs)
						before := snapshotMount(t, m.fs)
						err := op.run(m)
						if err == nil {
							t.Fatal("succeeded with every inode slot taken")
						}
						failures++
						checkFailed(t, m, before, err, release, op.run)
					}
					t.Logf("%d failures checked", failures)
				})
			}
		}
	}
}

// testMkdirWithFullTable fills the embedded layout's one-block directory
// table. The next Mkdir has already preallocated its content, taken a
// record slot and a directory id when the table refuses it: all of that
// must go back.
func testMkdirWithFullTable(t *testing.T) {
	cfg := abortConfig(abortLayouts[2], false)
	cfg.GroupBlocks = 2048
	cfg.Blocks = 1 + 256 + 1 + 2*2048
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tableFull := func(err error) bool { return err != nil && strings.Contains(err.Error(), "directory table full") }
	for i := 0; ; i++ {
		_, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%03d", i))
		if tableFull(err) {
			break
		}
		if err != nil {
			t.Fatalf("filling the table stopped with %v", err)
		}
	}
	before := snapshotMount(t, fs)
	if _, err := fs.Mkdir(fs.Root(), "one-more"); !tableFull(err) {
		t.Fatalf("Mkdir into a full table: %v", err)
	}
	if d := diffMount(before, snapshotMount(t, fs)); d != "" {
		t.Fatalf("the failed Mkdir left a trace: %s", d)
	}
	checkClean(t, fs)
	if _, err := fs.Create(fs.Root(), "a-file-still-fits"); err != nil {
		t.Fatal(err)
	}
	checkClean(t, fs)
}

// testRoundRobinOutOfSpace is the round-robin ENOSPC probe: on a device
// whose one group has d data blocks, Mkdir, Create, Create until
// something fails, then the synced mount must check clean. The embedded
// Mkdir used to leak the content it had preallocated.
func testRoundRobinOutOfSpace(t *testing.T) {
	for _, layout := range []Layout{LayoutNormal, LayoutEmbedded} {
		for _, d := range []int64{8, 12, 16, 24, 40} {
			t.Run(fmt.Sprintf("%v/d=%d", layout, d), func(t *testing.T) {
				cfg := DefaultConfig(layout)
				cfg.TableBlocks = 1
				cfg.InodesPerGroup = 1024
				cfg.GroupBlocks = 2 + 64 + d
				cfg.Blocks = 1 + cfg.JournalBlocks + 1 + cfg.GroupBlocks
				cfg.SyncWrites = true
				fs, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				dir := fs.Root()
				for i := 0; err == nil; i++ {
					switch i % 3 {
					case 0:
						dir, err = fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", i))
					default:
						_, err = fs.Create(dir, fmt.Sprintf("f%d", i))
					}
				}
				checkClean(t, fs)
			})
		}
	}
}

// TestNamesTheLayoutCannotStoreAreRefused: a normal-layout dirent holds 55
// bytes of name and an embedded record 48. A longer name is refused
// before anything is touched — it used to be accepted, and the normal
// layout's synced image no longer remounted.
func TestNamesTheLayoutCannotStoreAreRefused(t *testing.T) {
	for _, layout := range []Layout{LayoutNormal, LayoutEmbedded} {
		t.Run(layout.String(), func(t *testing.T) {
			fs := newFS(t, layout)
			limit := direntSize - 9
			if layout == LayoutEmbedded {
				limit = inode.MaxNameLen
			}
			okName, longName := strings.Repeat("x", limit), strings.Repeat("y", limit+1)
			if _, err := fs.Create(fs.Root(), okName); err != nil {
				t.Fatalf("a %d-byte name: %v", limit, err)
			}
			before := snapshotMount(t, fs)
			if _, err := fs.Create(fs.Root(), longName); !errors.Is(err, inode.ErrNameTooLong) {
				t.Fatalf("Create of a %d-byte name: %v, want ErrNameTooLong", limit+1, err)
			}
			if _, err := fs.Mkdir(fs.Root(), longName); !errors.Is(err, inode.ErrNameTooLong) {
				t.Fatalf("Mkdir of a %d-byte name: %v, want ErrNameTooLong", limit+1, err)
			}
			if _, err := fs.Rename(fs.Root(), okName, fs.Root(), longName); !errors.Is(err, inode.ErrNameTooLong) {
				t.Fatalf("Rename to a %d-byte name: %v, want ErrNameTooLong", limit+1, err)
			}
			if d := diffMount(before, snapshotMount(t, fs)); d != "" {
				t.Fatalf("a refused name left a trace: %s", d)
			}
			checkClean(t, fs)
			if err := fs.Remount(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Lookup(fs.Root(), okName); err != nil {
				t.Fatalf("the longest storable name after remount: %v", err)
			}
		})
	}
}

// TestUnlinkLostToACrashKeepsTheMapping unlinks a synced file with a
// 300-unit mapping and crashes before the batch commits. Recovery — the
// sequence pfs.CrashRecover runs — must bring the file back whole: its
// spill blocks were freed only in the lost transaction. They used to be
// revoked at once, and the file came back with 4 units.
func TestUnlinkLostToACrashKeepsTheMapping(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		ino, err := fs.Create(fs.Root(), "wide")
		if err != nil {
			t.Fatal(err)
		}
		want := units(300)
		if err := fs.SetLayout(ino, want); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(fs.Root(), "wide"); err != nil {
			t.Fatal(err)
		}
		st := fs.Store()
		st.Crash()
		st.Recover()
		if err := fs.Remount(); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.RebuildAllocator(); err != nil {
			t.Fatal(err)
		}
		got, err := fs.Lookup(fs.Root(), "wide")
		if err != nil {
			t.Fatalf("the unlinked file after the crash: %v", err)
		}
		exts, err := fs.GetLayout(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exts, want) {
			t.Fatalf("the mapping came back with %d of %d units", len(exts), len(want))
		}
		if rep := fs.Fsck(); !rep.Clean() {
			t.Fatalf("fsck after recovery: %v", rep.Problems)
		}
	})
}
