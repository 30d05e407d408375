package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// miffsck runs one command line in-process and returns its exit code and
// what it wrote to stdout.
func miffsck(args ...string) (int, []byte) {
	var stdout bytes.Buffer
	code := run(args, &stdout)
	return code, stdout.Bytes()
}

// genImage writes an image through the real gen path: a small one, unless
// extra sets -dirs and -files itself.
func genImage(t *testing.T, path string, extra ...string) {
	t.Helper()
	args := append([]string{"gen", "-dirs", "1", "-files", "24"}, extra...)
	if code, _ := miffsck(append(args, path)...); code != 0 {
		t.Fatalf("miffsck %s %s: exit %d", strings.Join(args, " "), path, code)
	}
}

// checkImage runs `miffsck check` on an image and returns its exit code.
func checkImage(path string) int {
	code, _ := miffsck("check", path)
	return code
}

// TestCheckExitCodeContract pins the documented fsck exit codes:
// 0 for a clean image, 2 for an image that was repaired by journal
// replay, 1 for a structurally corrupt image.
func TestCheckExitCodeContract(t *testing.T) {
	dir := t.TempDir()

	for _, tc := range []struct {
		name string
		gen  []string
		want int
	}{
		{"clean", nil, 0},
		// -journal-only leaves the final transaction committed but not
		// checkpointed: load replays it, so the image is repaired, not
		// clean.
		{"journal-only", []string{"-journal-only"}, 2},
		// At gen's default size: a crash right after a defrag pass
		// committed its rewrites, a population whose metadata only the
		// client cache's flush barriers wrote, and a defrag-aged image.
		{"defrag-journal-only", []string{"-dirs", "4", "-files", "200", "-defrag", "-journal-only"}, 2},
		{"cache", []string{"-dirs", "2", "-files", "48", "-cache"}, 0},
		{"defrag", []string{"-dirs", "4", "-files", "200", "-defrag"}, 0},
	} {
		img := filepath.Join(dir, tc.name+".img")
		genImage(t, img, tc.gen...)
		if got := checkImage(img); got != tc.want {
			t.Errorf("%s image: exit %d, want %d", tc.name, got, tc.want)
		}
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
	if got := checkImage(corrupt); got != 1 {
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
	if got := checkImage(damaged); got != 1 {
		t.Fatalf("damaged image: exit %d, want 1", got)
	}

	if got := checkImage(filepath.Join(dir, "missing.img")); got != 1 {
		t.Fatalf("unreadable image: exit %d, want 1", got)
	}
}

// TestSweepExitCode runs sweeps through the CLI entry point: a passing
// sweep exits 0, an unknown point name exits 1, and a six-point sweep
// renders byte-identical reports run to run.
func TestSweepExitCode(t *testing.T) {
	if got, _ := miffsck("sweep", "-points", "cache.sync.flush,ost.truncate.partial"); got != 0 {
		t.Fatalf("passing sweep: exit %d, want 0", got)
	}
	if got, _ := miffsck("sweep", "-points", "no.such.point"); got != 1 {
		t.Fatalf("unknown point: exit %d, want 1", got)
	}
	const six = "journal.append.commit,mdfs.checkpoint.home,ost.flush.media,ost.migrate.free,repair.copy.media,cache.sync.flush"
	code, first := miffsck("sweep", "-points", six)
	if code != 0 {
		t.Fatalf("six-point sweep: exit %d, want 0\n%s", code, first)
	}
	if _, second := miffsck("sweep", "-points", six); !bytes.Equal(first, second) {
		t.Fatalf("two runs of the same sweep differ:\n%s\n---\n%s", first, second)
	}
}

// TestBadCommandLines: an unknown or missing subcommand, an unknown flag
// and a wrong positional count are usage errors (exit 2); a command line
// that cannot be carried out — clashing flags, an unknown layout — fails
// (exit 1).
func TestBadCommandLines(t *testing.T) {
	img := filepath.Join(t.TempDir(), "x.img")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, {[]string{"bogus"}, 2},
		{[]string{"gen", "-bogus", img}, 2}, {[]string{"check", "-bogus", img}, 2}, {[]string{"sweep", "-bogus"}, 2},
		{[]string{"gen"}, 2}, {[]string{"check", img, img}, 2}, {[]string{"sweep", img}, 2},
		{[]string{"gen", "-cache", "-defrag", img}, 1}, {[]string{"gen", "-layout", "bogus", img}, 1},
	} {
		if code, _ := miffsck(tc.args...); code != tc.code {
			t.Errorf("miffsck %q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

// TestCheckCorruptImageFindings covers the new finding classes end to
// end through the CLI: gen -corrupt plants the damage, check must exit 1.
func TestCheckCorruptImageFindings(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"cycle", "dup-claim", "size-over", "table-orphan"} {
		img := filepath.Join(dir, kind+".img")
		genImage(t, img, "-corrupt", kind)
		if got := checkImage(img); got != 1 {
			t.Fatalf("%s image: check exit %d, want 1", kind, got)
		}
	}
	// The normal layout expresses the cycle differently (a planted
	// dirent); cover it too.
	img := filepath.Join(dir, "cycle-normal.img")
	genImage(t, img, "-layout", "normal", "-corrupt", "cycle")
	if got := checkImage(img); got != 1 {
		t.Fatalf("normal-layout cycle image: exit %d, want 1", got)
	}
}
