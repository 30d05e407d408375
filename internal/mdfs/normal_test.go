package mdfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"redbud/internal/extent"
	"redbud/internal/inode"
)

// TestCreateOutOfSpaceLeaksNoInode fills a device whose data area is two
// blocks — two entry blocks, 128 dirents — and creates one file more. The
// failed create must give its inode slot and record back: it used to leave
// both in the open transaction, and the next commit persisted an orphan.
func TestCreateOutOfSpaceLeaksNoInode(t *testing.T) {
	cfg := DefaultConfig(LayoutNormal)
	cfg.JournalBlocks = 256
	cfg.TableBlocks = 1
	cfg.InodesPerGroup = 1024    // 64 inode-table blocks
	cfg.GroupBlocks = 2 + 64 + 2 // bitmaps, inode table, two data blocks
	cfg.Blocks = 1 + 256 + 1 + 2 + 64 + 2
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := 2 * fs.direntsPerBlock()
	for i := 0; i < full; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("f%03d", i)); err != nil {
			t.Fatalf("create %d of %d: %v", i, full, err)
		}
	}
	free := fs.inodeFree[0]
	if _, err := fs.Create(fs.Root(), "one-too-many"); err == nil {
		t.Fatal("create into a full device succeeded")
	}
	if fs.inodeFree[0] != free {
		t.Fatalf("failed create kept an inode: %d free, was %d", fs.inodeFree[0], free)
	}
	if n, _ := fs.Entries(fs.Root()); n != full {
		t.Fatalf("directory holds %d entries, want %d", n, full)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after a failed create: %v", rep.Problems)
	}
	// The slot is reusable once an entry makes room.
	if err := fs.Unlink(fs.Root(), "f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(fs.Root(), "fits-now"); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after reuse: %v", rep.Problems)
	}
}

// newSpillEdge builds a normal-layout device one block from full whose
// root has four full entry blocks, each an extent of its own: the next
// entry the root takes opens a fifth extent, which appendDirent can place
// but touchDirRecord then finds no block for the mapping's spill. It
// returns the device and directory a, which holds "big" (two spill
// blocks) and three blocks of entries a0-000….
func newSpillEdge(t *testing.T) (*FS, inode.Ino) {
	t.Helper()
	const data = 11 // data-area blocks
	cfg := DefaultConfig(LayoutNormal)
	cfg.JournalBlocks = 256
	cfg.TableBlocks = 1
	cfg.InodesPerGroup = 1024 // 64 inode-table blocks
	cfg.GroupBlocks = 2 + 64 + data
	cfg.Blocks = 1 + 256 + 1 + cfg.GroupBlocks
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(dir inode.Ino, prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := fs.Create(dir, fmt.Sprintf("%s%03d", prefix, i)); err != nil {
				t.Fatalf("create %s%03d: %v", prefix, i, err)
			}
		}
	}
	// Entry blocks of the root and of a alternate, so each block is an
	// extent of its own; big's two spill blocks sit between them.
	a, err := fs.Mkdir(fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	big, err := fs.Create(a, "big")
	if err != nil {
		t.Fatal(err)
	}
	var exts []extent.Extent
	for i := 0; i < inode.InlineExtents+fs.extentsPerSpill()+1; i++ {
		exts = append(exts, extent.Extent{Logical: int64(i), Physical: int64(2 * i), Count: 1})
	}
	if err := fs.SetLayout(big, exts); err != nil {
		t.Fatal(err)
	}
	per := fs.direntsPerBlock()
	for i := 0; i < 3; i++ {
		fill(fs.Root(), fmt.Sprintf("r%d-", i), per)
		fill(a, fmt.Sprintf("a%d-", i), per)
	}
	fill(fs.Root(), "r3-", per-1) // four full entry blocks
	root := fs.dirs[fs.Root()]
	if n := len(root.direntMap); n != inode.InlineExtents {
		t.Fatalf("root entry area has %d extents, want %d", n, inode.InlineExtents)
	}
	if free := fs.alloc.FreeBlocks(); free != 1 {
		t.Fatalf("%d free blocks before the failing op, want 1", free)
	}
	return fs, a
}

// TestCreateSpillFailureLeavesNoEntry runs newSpillEdge's device out of
// space with a create. The create must take back everything it did — the
// entry, the entry block, the inode slot and the record — and a retry
// must succeed once space is freed.
func TestCreateSpillFailureLeavesNoEntry(t *testing.T) {
	fs, a := newSpillEdge(t)
	inodesFree := fs.inodeFree[0]

	if _, err := fs.Create(fs.Root(), "spills"); err == nil {
		t.Fatal("create needing a fifth extent and a spill block succeeded on a full device")
	}
	if _, err := fs.Lookup(fs.Root(), "spills"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("lookup after the failed create: %v, want ErrNotExist", err)
	}
	if free := fs.alloc.FreeBlocks(); free != 1 {
		t.Fatalf("failed create kept its entry block: %d free blocks, want 1", free)
	}
	if fs.inodeFree[0] != inodesFree {
		t.Fatalf("failed create kept its inode: %d free, was %d", fs.inodeFree[0], inodesFree)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after the failed create: %v", rep.Problems)
	}

	// Deleting big frees its two spill blocks: one for the entry block,
	// one for the root's own spill.
	if err := fs.Unlink(a, "big"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(fs.Root(), "spills"); err != nil {
		t.Fatalf("retry once space is free: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after the retry: %v", rep.Problems)
	}
}

// TestRenameSpillFailureRestoresEntry runs newSpillEdge's device out of
// space with a rename into the root. The rename must put the entry back
// under its old name and give back the entry block it opened.
func TestRenameSpillFailureRestoresEntry(t *testing.T) {
	fs, a := newSpillEdge(t)
	used := fs.alloc.Total() - fs.alloc.FreeBlocks()

	if _, err := fs.Rename(a, "a0-000", fs.Root(), "moved"); err == nil {
		t.Fatal("rename needing a fifth extent and a spill block succeeded on a full device")
	}
	if _, err := fs.Lookup(a, "a0-000"); err != nil {
		t.Fatalf("source entry after the failed rename: %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), "moved"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("destination lookup after the failed rename: %v, want ErrNotExist", err)
	}
	if got := fs.alloc.Total() - fs.alloc.FreeBlocks(); got != used {
		t.Fatalf("failed rename moved the used count from %d to %d", used, got)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after the failed rename: %v", rep.Problems)
	}
}

// TestInodeBitmapWordsDoNotCollide journals the last word of a full-block
// inode bitmap (32,768 inodes per group: 512 words, exactly one block). It
// used to wrap eight bytes short of the block and land on word 0.
func TestInodeBitmapWordsDoNotCollide(t *testing.T) {
	cfg := DefaultConfig(LayoutNormal)
	cfg.InodesPerGroup = 32768
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blk := fs.geo.inodeBitmapBlock(0)
	word0 := binary.LittleEndian.Uint64(fs.store.Read(blk))
	if word0 == 0 {
		t.Fatal("word 0 should carry the reserved slot and the root inode")
	}
	const last = 511
	fs.ibitmap[0][last] = 0xA5A5A5A5A5A5A5A5
	fs.dirtyInodeBitmap(0, last)
	buf := fs.store.Read(blk)
	if got := binary.LittleEndian.Uint64(buf[last*8:]); got != fs.ibitmap[0][last] {
		t.Fatalf("word %d on disk = %#x, want %#x", last, got, fs.ibitmap[0][last])
	}
	if got := binary.LittleEndian.Uint64(buf); got != word0 {
		t.Fatalf("journaling word %d overwrote word 0: %#x, was %#x", last, got, word0)
	}
}
