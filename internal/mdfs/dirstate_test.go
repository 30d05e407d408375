package mdfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"redbud/internal/inode"
	"redbud/internal/sim"
)

// oracleDir is the directory bookkeeping as it was before the dense
// structures: a name → dirent index map probed linearly for the lowest free
// slot, and an insertion-order list spliced on removal. It is kept here as
// the reference the new state is checked against.
type oracleDir struct {
	order  []string
	loc    map[string]int
	blocks int
}

func newOracleDir() *oracleDir { return &oracleDir{loc: make(map[string]int)} }

// nextSlot is the old hole search: the lowest unused index below the
// directory's capacity, else the first index of a new block.
func (o *oracleDir) nextSlot(per int) int {
	if len(o.loc) < o.blocks*per {
		used := make(map[int]bool, len(o.loc))
		for _, i := range o.loc {
			used[i] = true
		}
		for i := 0; i < o.blocks*per; i++ {
			if !used[i] {
				return i
			}
		}
	}
	return len(o.loc)
}

func (o *oracleDir) add(name string, per int) int {
	idx := o.nextSlot(per)
	if idx/per >= o.blocks {
		o.blocks++
	}
	o.loc[name] = idx
	o.order = append(o.order, name)
	return idx
}

func (o *oracleDir) remove(name string) {
	delete(o.loc, name)
	for i, n := range o.order {
		if n == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

// oracleConfig shrinks the block so directories span several entry blocks
// after a few hundred operations.
func oracleConfig(layout Layout, htree bool) Config {
	cfg := DefaultConfig(layout)
	cfg.BlockSize = 1024 // 16 dirents, 4 inode records per block
	cfg.Blocks = 1 << 16
	cfg.GroupBlocks = 8192
	cfg.InodesPerGroup = 2048
	cfg.Htree = htree
	return cfg
}

func TestDirStateMatchesOracle(t *testing.T) {
	arms := []struct {
		name   string
		layout Layout
		htree  bool
	}{
		{"normal", LayoutNormal, false},
		{"htree", LayoutNormal, true},
		{"embedded", LayoutEmbedded, false},
	}
	for _, arm := range arms {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", arm.name, seed), func(t *testing.T) {
				runOracle(t, oracleConfig(arm.layout, arm.htree), seed)
			})
		}
	}
}

func runOracle(t *testing.T, cfg Config, seed uint64) {
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	normal := cfg.Layout == LayoutNormal
	per := fs.direntsPerBlock()
	rng := sim.NewRand(seed)

	// Directory handles are positions, not inode numbers: an embedded
	// rename renumbers, the position stays.
	parents := []inode.Ino{fs.Root()}
	model := []*oracleDir{newOracleDir()}
	for _, name := range []string{"a", "b"} {
		ino, err := fs.Mkdir(fs.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fs.dirs[fs.Root()].names.byName[name].slot, model[0].add(name, per); normal && int(got) != want {
			t.Fatalf("mkdir %q took dirent %d, oracle %d", name, got, want)
		}
		parents = append(parents, ino)
		model = append(model, newOracleDir())
	}

	check := func(step int, di int) {
		t.Helper()
		want := model[di].order
		names, err := fs.Readdir(parents[di])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("step %d dir %d: Readdir order diverged from the spliced list\n got %v\nwant %v", step, di, names, want)
		}
		recs, err := fs.ReaddirPlus(parents[di])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want) {
			t.Fatalf("step %d dir %d: ReaddirPlus returned %d records, want %d", step, di, len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.Name != want[i] {
				t.Fatalf("step %d dir %d: ReaddirPlus[%d] = %q, want %q", step, di, i, rec.Name, want[i])
			}
		}
	}
	// pickFile draws a file name from a directory's model, skipping the
	// two subdirectories of the root.
	pickFile := func(di int) (string, bool) {
		o := model[di]
		for tries := 0; tries < 4 && len(o.order) > 0; tries++ {
			name := o.order[rng.Intn(len(o.order))]
			if di != 0 || (name != "a" && name != "b") {
				return name, true
			}
		}
		return "", false
	}

	const steps = 900
	serial := 0
	for step := 0; step < steps; step++ {
		// Alternate growth and shrink phases: shrinking drives the
		// tombstones in the order list past half, across its compaction.
		pCreate := 70
		if (step/150)%2 == 1 {
			pCreate = 15
		}
		di := rng.Intn(len(parents))
		switch r := rng.Intn(100); {
		case r < pCreate:
			name := fmt.Sprintf("f%04d", serial)
			serial++
			want := model[di].add(name, per)
			if _, err := fs.Create(parents[di], name); err != nil {
				t.Fatalf("step %d: create %q: %v", step, name, err)
			}
			d, _ := fs.dirOf(parents[di])
			if got := int(d.names.byName[name].slot); normal && got != want {
				t.Fatalf("step %d: create %q took dirent %d, oracle's linear probe picks %d", step, name, got, want)
			}
			if normal && len(d.direntBlocks) != model[di].blocks {
				t.Fatalf("step %d: directory has %d entry blocks, oracle %d", step, len(d.direntBlocks), model[di].blocks)
			}
			check(step, di)
		case r < pCreate+(100-pCreate)*3/4:
			name, ok := pickFile(di)
			if !ok {
				continue
			}
			model[di].remove(name)
			if err := fs.Unlink(parents[di], name); err != nil {
				t.Fatalf("step %d: unlink %q: %v", step, name, err)
			}
			check(step, di)
		default:
			name, ok := pickFile(di)
			if !ok {
				continue
			}
			dj := rng.Intn(len(parents)) // may equal di: a rename in place
			newName := fmt.Sprintf("r%04d", serial)
			serial++
			model[di].remove(name)
			want := model[dj].add(newName, per)
			if _, err := fs.Rename(parents[di], name, parents[dj], newName); err != nil {
				t.Fatalf("step %d: rename %q: %v", step, name, err)
			}
			d, _ := fs.dirOf(parents[dj])
			if got := int(d.names.byName[newName].slot); normal && got != want {
				t.Fatalf("step %d: rename to %q took dirent %d, oracle %d", step, newName, got, want)
			}
			check(step, di)
			check(step, dj)
		}
		if normal && step%100 == 99 {
			checkRebuiltSlots(t, fs, parents, model, per)
		}
	}
	for di := range parents {
		d, _ := fs.dirOf(parents[di])
		if d.names.len() != len(model[di].order) {
			t.Fatalf("dir %d holds %d names, oracle %d", di, d.names.len(), len(model[di].order))
		}
	}
}

// checkRebuiltSlots verifies that the free-slot bitmaps LoadImage and
// Remount rebuild from the entry blocks choose the same next slot as the
// live bitmaps and as the oracle's probe.
func checkRebuiltSlots(t *testing.T, fs *FS, parents []inode.Ino, model []*oracleDir, per int) {
	t.Helper()
	next := func(f *FS, ino inode.Ino) int {
		d, err := f.dirOf(ino)
		if err != nil {
			t.Fatal(err)
		}
		limit := len(d.direntBlocks) * per
		if i := d.slots.lowestClear(limit); i >= 0 {
			return i
		}
		return limit
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int, len(parents))
	for di, ino := range parents {
		live[di] = next(fs, ino)
		if want := model[di].nextSlot(per); live[di] != want {
			t.Fatalf("dir %d: live bitmap picks dirent %d, oracle %d", di, live[di], want)
		}
		if got := next(loaded, ino); got != live[di] {
			t.Fatalf("dir %d: LoadImage's bitmap picks dirent %d, live %d", di, got, live[di])
		}
	}
	if err := fs.Remount(); err != nil {
		t.Fatal(err)
	}
	for di, ino := range parents {
		if got := next(fs, ino); got != live[di] {
			t.Fatalf("dir %d: Remount's bitmap picks dirent %d, live %d", di, got, live[di])
		}
		// Remount lists a directory in dirent order; the oracle follows,
		// the way the old loader rebuilt its list.
		d, _ := fs.dirOf(ino)
		model[di].order = d.names.names()
	}
}

// TestNameIndexCompaction pins the tombstone bookkeeping: removal keeps
// insertion order, the list is squeezed right before a removal whose
// tombstone would exceed half of it, and the empty string — the tombstone
// mark — still works as a name.
func TestNameIndexCompaction(t *testing.T) {
	n := newNameIndex(0)
	names := []string{"a", "b", "", "c", "d", "e", "f", "g"}
	for i, name := range names {
		n.add(name, inode.Ino(100+i), i)
	}
	if got := n.names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("names = %q, want %q", got, names)
	}
	// Four removals out of eight: exactly half, not yet over it.
	for _, name := range []string{"a", "c", "e", "g"} {
		if _, ok := n.remove(name); !ok {
			t.Fatalf("remove %q: not found", name)
		}
	}
	if len(n.order) != 8 || n.dead != 4 {
		t.Fatalf("at half: len(order) = %d, dead = %d; want 8, 4 (no compaction yet)", len(n.order), n.dead)
	}
	if got, want := n.names(), []string{"b", "", "d", "f"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %q, want %q", got, want)
	}
	// The fifth would tip it over: the list is compacted, then b leaves
	// the one tombstone.
	if e, ok := n.remove("b"); !ok || e.ino != 101 || e.slot != 1 || e.pos != 0 {
		t.Fatalf("remove b = %+v, %v", e, ok)
	}
	if len(n.order) != 4 || n.dead != 1 {
		t.Fatalf("past half: len(order) = %d, dead = %d; want 4, 1 (compacted, then b's tombstone)", len(n.order), n.dead)
	}
	if got, want := n.names(), []string{"", "d", "f"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names after compaction = %q, want %q", got, want)
	}
	for i, name := range n.order {
		if e := n.byName[name]; n.live(i) && int(e.pos) != i {
			t.Fatalf("%q carries position %d, sits at %d", name, e.pos, i)
		}
	}
	// Undoing the removal puts b back where it was; undoing an add drops
	// the last name.
	n.restore("b", entry{ino: 101, slot: 1, pos: 0})
	n.add("h", 107, 7)
	if e := n.unadd(); e.ino != 107 {
		t.Fatalf("unadd h = %+v", e)
	}
	if got, want := n.names(), []string{"b", "", "d", "f"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names after the undos = %q, want %q", got, want)
	}
	if _, ok := n.remove("b"); !ok {
		t.Fatal("remove b again: not found")
	}
	// The empty name survives its own removal and re-insertion.
	if e, ok := n.remove(""); !ok || e.ino != 102 {
		t.Fatalf("remove empty name = %+v, %v", e, ok)
	}
	n.add("", 200, 9)
	if got, want := n.names(), []string{"d", "f", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %q, want %q", got, want)
	}
	// Re-adding a present name replaces it and moves it to the end.
	n.add("d", 300, 10)
	if got, want := n.names(), []string{"f", "", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names after replace = %q, want %q", got, want)
	}
	if n.len() != 3 {
		t.Fatalf("len = %d, want 3", n.len())
	}
}

// TestSlotBitmapLowestClear checks the hole search against a linear scan,
// including capacities that are not a multiple of the word size.
func TestSlotBitmapLowestClear(t *testing.T) {
	rng := sim.NewRand(5)
	for _, per := range []int{16, 64, 128} {
		var b slotBitmap
		used := map[int]bool{}
		blocks := 0
		for step := 0; step < 2000; step++ {
			limit := blocks * per
			want := -1
			for i := 0; i < limit; i++ {
				if !used[i] {
					want = i
					break
				}
			}
			got := b.lowestClear(limit)
			if got != want {
				t.Fatalf("per=%d step %d: lowestClear(%d) = %d, linear scan %d", per, step, limit, got, want)
			}
			if rng.Intn(3) > 0 || len(used) == 0 {
				if got < 0 {
					got = limit
					blocks++
				}
				b.set(got)
				used[got] = true
			} else {
				i := rng.Intn(blocks * per)
				if used[i] {
					b.clear(i)
					delete(used, i)
				}
			}
		}
	}
}
