package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// genImage writes a small image through the real gen path.
func genImage(t *testing.T, path string, extra ...string) {
	t.Helper()
	args := append([]string{"-dirs", "1", "-files", "24"}, extra...)
	gen(append(args, path))
}

// TestCheckExitCodeContract pins the documented fsck exit codes:
// 0 for a clean image, 2 for an image that was repaired by journal
// replay, 1 for a structurally corrupt image.
func TestCheckExitCodeContract(t *testing.T) {
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.img")
	genImage(t, clean)
	if got := check([]string{clean}); got != 0 {
		t.Fatalf("clean image: exit %d, want 0", got)
	}

	// -journal-only leaves the final transaction committed but not
	// checkpointed: load replays it, so the image is repaired, not clean.
	repaired := filepath.Join(dir, "repaired.img")
	genImage(t, repaired, "-journal-only")
	if got := check([]string{repaired}); got != 2 {
		t.Fatalf("journal-only image: exit %d, want 2 (repaired)", got)
	}

	// Corrupt the superblock payload. Image layout: 12-byte header,
	// 6 x int64 geometry, int64 home count, then sorted (block, data)
	// entries — block 0's data (the superblock) starts at offset 76.
	corrupt := filepath.Join(dir, "corrupt.img")
	genImage(t, corrupt)
	img, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if blk := binary.LittleEndian.Uint64(img[68:]); blk != 0 {
		t.Fatalf("first home entry is block %d, want 0 (superblock)", blk)
	}
	for i := 76; i < 76+64; i++ {
		img[i] ^= 0xFF
	}
	if err := os.WriteFile(corrupt, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := check([]string{corrupt}); got != 1 {
		t.Fatalf("corrupt image: exit %d, want 1", got)
	}

	// Point the superblock's root record (the int64 at superblock offset
	// 8) past the end of the device. Loading it used to panic, and a
	// panicking Go program exits 2 — the code for "repaired".
	damaged := filepath.Join(dir, "damaged.img")
	genImage(t, damaged)
	img, err = os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(img[76+8:], 1<<40)
	if err := os.WriteFile(damaged, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := check([]string{damaged}); got != 1 {
		t.Fatalf("damaged image: exit %d, want 1", got)
	}

	if got := check([]string{filepath.Join(dir, "missing.img")}); got != 1 {
		t.Fatalf("unreadable image: exit %d, want 1", got)
	}
}

// TestSweepExitCode runs a two-point sweep through the CLI entry point:
// a passing sweep exits 0, an unknown point name exits 1.
func TestSweepExitCode(t *testing.T) {
	if got := sweep([]string{"-points", "cache.sync.flush,ost.truncate.partial"}); got != 0 {
		t.Fatalf("passing sweep: exit %d, want 0", got)
	}
	if got := sweep([]string{"-points", "no.such.point"}); got != 1 {
		t.Fatalf("unknown point: exit %d, want 1", got)
	}
}

// TestCheckCorruptImageFindings covers the new finding classes end to
// end through the CLI: gen -corrupt plants the damage, check must exit 1.
func TestCheckCorruptImageFindings(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"cycle", "dup-claim", "size-over", "table-orphan"} {
		img := filepath.Join(dir, kind+".img")
		genImage(t, img, "-corrupt", kind)
		if got := check([]string{img}); got != 1 {
			t.Fatalf("%s image: check exit %d, want 1", kind, got)
		}
	}
	// The normal layout expresses the cycle differently (a planted
	// dirent); cover it too.
	img := filepath.Join(dir, "cycle-normal.img")
	genImage(t, img, "-layout", "normal", "-corrupt", "cycle")
	if got := check([]string{img}); got != 1 {
		t.Fatalf("normal-layout cycle image: exit %d, want 1", got)
	}
}
