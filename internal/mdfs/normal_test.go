package mdfs

import (
	"encoding/binary"
	"fmt"
	"testing"
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
