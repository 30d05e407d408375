package mdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"redbud/internal/extent"
	"redbud/internal/inode"
)

// populate builds a small namespace with files, mappings, deletions, and a
// subdirectory.
func populate(t testing.TB, fs *FS) {
	t.Helper()
	d, err := fs.Mkdir(fs.Root(), "proj")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		ino, err := fs.Create(d, fmt.Sprintf("f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			var exts []extent.Extent
			for j := 0; j < 10+i; j++ {
				exts = append(exts, extent.Extent{Logical: int64(j) * 2, Physical: int64(9000 + i*100 + j*4), Count: 2})
			}
			if err := fs.SetLayout(ino, exts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i += 7 {
		if err := fs.Unlink(d, fmt.Sprintf("f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := fs.Mkdir(d, "sub")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(sub, "leaf"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFsckCleanBothLayouts(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		populate(t, fs)
		report := fs.Fsck()
		if !report.Clean() {
			t.Fatalf("fsck found problems on a healthy FS:\n%v", report.Problems)
		}
		if report.Dirs < 3 { // root, proj, sub
			t.Fatalf("Dirs = %d, want >= 3", report.Dirs)
		}
		if report.Files < 40 {
			t.Fatalf("Files = %d, want >= 40", report.Files)
		}
		if report.ReachableBlocks == 0 {
			t.Fatal("no reachable blocks counted")
		}
	})
}

func TestFsckDetectsCorruptRecord(t *testing.T) {
	fs := newFS(t, LayoutEmbedded)
	populate(t, fs)
	// Corrupt one content block of the proj directory: flip the inline
	// count of a record to an invalid value.
	d := fs.dirs[fs.Resolve(mustLookup(t, fs, fs.Root(), "proj"))]
	blk := d.content[0].Start
	buf := append([]byte(nil), fs.store.Read(blk)...)
	buf[117] = 250 // offInlineN out of range
	fs.store.Write(blk, buf)
	fs.store.Commit()
	fs.store.Checkpoint()
	report := fs.Fsck()
	if report.Clean() {
		t.Fatal("fsck missed a corrupt inode record")
	}
}

// TestFsckDetectsCutSpillChain cuts a 300-unit mapping's spill chain after
// its second link. The record still says 300 units but its inline head
// and chain hold 258: fsck must say so, where it used to call the mount
// clean — the blind spot that let a crash truncate a mapping unseen.
func TestFsckDetectsCutSpillChain(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		ino, err := fs.Create(fs.Root(), "wide")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.SetLayout(ino, units(300)); err != nil {
			t.Fatal(err)
		}
		rec, err := fs.Stat(ino)
		if err != nil {
			t.Fatal(err)
		}
		if rep := fs.Fsck(); !rep.Clean() {
			t.Fatalf("fsck before the cut: %v", rep.Problems)
		}
		fs.store.WriteAt(rec.Spill[1], 4, make([]byte, 8)) // next pointer
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("file %q mapping holds %d of its 300 units", "wide", inode.InlineExtents+2*fs.extentsPerSpill())
		if rep := fs.Fsck(); !hasFinding(rep.Problems, want) {
			t.Fatalf("no %q finding in:\n%v", want, rep.Problems)
		}
	})
}

func TestFsckDetectsBadSuperblock(t *testing.T) {
	fs := newFS(t, LayoutNormal)
	populate(t, fs)
	fs.store.Write(0, make([]byte, fs.cfg.BlockSize))
	fs.store.Commit()
	fs.store.Checkpoint()
	report := fs.Fsck()
	if report.Clean() {
		t.Fatal("fsck missed a destroyed superblock")
	}
}

// mustLookup is a test helper.
func mustLookup(t testing.TB, fs *FS, dir inode.Ino, name string) inode.Ino {
	t.Helper()
	ino, err := fs.Lookup(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

func TestImageSaveLoadRoundTrip(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		populate(t, fs)
		var img bytes.Buffer
		if err := fs.SaveImage(&img); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadImage(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// The namespace survives.
		d, err := loaded.Lookup(loaded.Root(), "proj")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Lookup(d, "f01"); err != nil {
			t.Fatalf("f01 lost: %v", err)
		}
		if _, err := loaded.Lookup(d, "f00"); err == nil {
			t.Fatal("deleted f00 resurrected")
		}
		sub, err := loaded.Lookup(d, "sub")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Lookup(sub, "leaf"); err != nil {
			t.Fatal(err)
		}
		// Layout mappings survive.
		ino, _ := loaded.Lookup(d, "f03")
		exts, err := loaded.GetLayout(ino)
		if err != nil {
			t.Fatal(err)
		}
		if len(exts) != 13 {
			t.Fatalf("f03 layout = %d extents, want 13", len(exts))
		}
		// The loaded instance fscks clean and accepts new work.
		if report := loaded.Fsck(); !report.Clean() {
			t.Fatalf("loaded image not clean:\n%v", report.Problems)
		}
		if _, err := loaded.Create(d, "after-load"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestImageIncludesJournalOverlay(t *testing.T) {
	fs := newFS(t, LayoutEmbedded)
	populate(t, fs)
	// A committed-but-uncheckpointed change must be part of the image.
	d, _ := fs.Lookup(fs.Root(), "proj")
	if _, err := fs.Create(d, "committed-only"); err != nil {
		t.Fatal(err)
	}
	if err := fs.store.Commit(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.Lookup(loaded.Root(), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Lookup(d2, "committed-only"); err != nil {
		t.Fatalf("journal-overlay change lost: %v", err)
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(bytes.NewReader([]byte("not an image at all"))); err == nil {
		t.Fatal("garbage should not load")
	}
	if _, err := LoadImage(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should not load")
	}
}

// TestLoadImageRejectsAbsurdGeometry: a header whose geometry New would
// reject, or whose device is past the cap, is an error before anything is
// sized by it. A 60-byte header claiming 2^36 blocks used to end the
// process out of memory in the allocator.
func TestLoadImageRejectsAbsurdGeometry(t *testing.T) {
	seed, err := New(fuzzConfig(LayoutNormal))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		field int // index of the header's geometry field to overwrite
		value int64
	}{
		{"2^36 blocks", 0, 1 << 36},
		{"device past the cap", 0, maxImageBytes/1024 + 1},
		{"block past the cap", 1, maxImageBlockSize * 2},
		{"negative blocks", 0, -1},
		{"negative inodes per group", 5, -8},
		{"block below an inode record", 1, 16},
		{"group too small for its inode table", 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var img bytes.Buffer
			if err := seed.SaveImage(&img); err != nil {
				t.Fatal(err)
			}
			b := img.Bytes()
			binary.LittleEndian.PutUint64(b[12+8*tc.field:], uint64(tc.value))
			if _, err := LoadImage(bytes.NewReader(b)); err == nil {
				t.Fatal("image loaded")
			}
		})
	}
}

// TestLoadImageBoundsItsBuffers: a header that declares as many home
// blocks as the device has, then ends — after the count, or after one
// block — is an error, and loading it allocates at most one slab of
// blocks, never a buffer the declared count sizes: a 2 GiB device would
// otherwise cost 2 GiB before the first missing byte is noticed.
func TestLoadImageBoundsItsBuffers(t *testing.T) {
	cfg := DefaultConfig(LayoutEmbedded)
	seed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := seed.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	const header = 12 + 6*8 // magic, version, layout, then the geometry
	count := binary.LittleEndian.AppendUint64(img.Bytes()[:header:header], uint64(cfg.Blocks))
	oneBlock := binary.LittleEndian.AppendUint64(bytes.Clone(count), uint64(cfg.Blocks-1))
	oneBlock = append(oneBlock, make([]byte, cfg.BlockSize)...)
	for _, tc := range []struct {
		name string
		img  []byte
	}{{"count then EOF", count}, {"one block then EOF", oneBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadImage(bytes.NewReader(tc.img))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("truncated image loaded")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
				t.Fatalf("LoadImage allocated %d bytes before failing, want < 2 MiB (one slab is %d)",
					grew, slabBlocks*cfg.BlockSize)
			}
		})
	}
}

// hasFinding reports whether any problem line contains the substring.
func hasFinding(problems []string, substr string) bool {
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}

// TestFsckCycleTerminates is the headline regression: a dirent graph that
// re-enters itself must yield a cycle finding, not unbounded recursion.
// The walk enters each directory record once, on the first link to reach
// it; without that guard it recursed around the cycle and this test hung.
func TestFsckCycleTerminates(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		populate(t, fs)
		if err := fs.InjectCorruption("cycle"); err != nil {
			t.Fatal(err)
		}
		report := fs.Fsck()
		if report.Clean() {
			t.Fatal("fsck missed a directory cycle")
		}
		if !hasFinding(report.Problems, "cycle") {
			t.Fatalf("no cycle finding in:\n%v", report.Problems)
		}
	})
}

// TestFsckCycleSurvivesImageRoundTrip proves both that the cyclic image
// mounts (the Remount visited guard) and that fsck still reports the
// damage after LoadImage.
func TestFsckCycleSurvivesImageRoundTrip(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		populate(t, fs)
		if err := fs.InjectCorruption("cycle"); err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := fs.SaveImage(&img); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadImage(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatalf("cyclic image failed to mount: %v", err)
		}
		report := loaded.Fsck()
		if !hasFinding(report.Problems, "cycle") {
			t.Fatalf("no cycle finding after round trip:\n%v", report.Problems)
		}
	})
}

// fsckCorruptionCases lists every InjectCorruption kind with the layouts
// that can express it and the finding class fsck must report for it.
var fsckCorruptionCases = []struct {
	kind    string
	layouts []Layout
	want    string
}{
	{"cycle", []Layout{LayoutNormal, LayoutEmbedded}, "cycle"},
	{"leak", []Layout{LayoutNormal, LayoutEmbedded}, "leaked"},
	{"dup-claim", []Layout{LayoutNormal, LayoutEmbedded}, "claimed by both"},
	{"bitmap-orphan", []Layout{LayoutNormal}, "orphan"},
	{"table-orphan", []Layout{LayoutEmbedded}, "orphan"},
	{"size-over", []Layout{LayoutEmbedded}, "stale over-count"},
}

// TestFsckCorruptionSuite is the table-driven corrupted-image suite: each
// corruption kind must yield its specific finding class.
func TestFsckCorruptionSuite(t *testing.T) {
	for _, tc := range fsckCorruptionCases {
		for _, layout := range tc.layouts {
			t.Run(tc.kind+"/"+layout.String(), func(t *testing.T) {
				fs := newFS(t, layout)
				populate(t, fs)
				if err := fs.InjectCorruption(tc.kind); err != nil {
					t.Fatal(err)
				}
				if report := fs.Fsck(); !hasFinding(report.Problems, tc.want) {
					t.Fatalf("no %q finding in:\n%v", tc.want, report.Problems)
				}
			})
		}
	}
}

// agedFS is populate's namespace aged further — eight more directories,
// spread across allocation groups — and synced, then damaged by one
// corruption kind unless kind is empty.
func agedFS(t *testing.T, layout Layout, kind string) *FS {
	t.Helper()
	fs := newFS(t, layout)
	populate(t, fs)
	for i := 0; i < 8; i++ {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 12; j++ {
			if _, err := fs.Create(d, fmt.Sprintf("g%02d", j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if kind != "" {
		if err := fs.InjectCorruption(kind); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// fsckGoldenText renders the full report — counts, problems, advisories —
// for the clean aged namespace and for every corruption kind on every
// layout that can express it.
func fsckGoldenText(t *testing.T) string {
	var b strings.Builder
	for _, layout := range []Layout{LayoutNormal, LayoutEmbedded} {
		kinds := []string{""}
		for _, tc := range fsckCorruptionCases {
			for _, l := range tc.layouts {
				if l == layout {
					kinds = append(kinds, tc.kind)
				}
			}
		}
		for _, kind := range kinds {
			r := agedFS(t, layout, kind).Fsck()
			name := kind
			if name == "" {
				name = "clean"
			}
			fmt.Fprintf(&b, "== %s/%s: %d dirs, %d files, %d reachable blocks\n",
				name, layout, r.Dirs, r.Files, r.ReachableBlocks)
			for _, p := range r.Problems {
				fmt.Fprintf(&b, "problem: %s\n", p)
			}
			for _, a := range r.Advisories {
				fmt.Fprintf(&b, "advisory: %s\n", a)
			}
		}
	}
	return b.String()
}

// TestFsckReportGolden pins every line of the report, on the clean aged
// namespace and on each corruption kind, to testdata captured from the
// checker before it became one walk: the findings, the pairing in each
// duplicate-claim and re-entry line, and the order of the final lists.
func TestFsckReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fsck_reports.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := fsckGoldenText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from testdata at line %d:\ngot:  %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestFsckLeakReclaimedByRebuild proves the recovery contract: the leak
// fsck reports is exactly what RebuildAllocator reclaims.
func TestFsckLeakReclaimedByRebuild(t *testing.T) {
	bothLayouts(t, func(t *testing.T, fs *FS) {
		populate(t, fs)
		if err := fs.InjectCorruption("leak"); err != nil {
			t.Fatal(err)
		}
		if report := fs.Fsck(); !hasFinding(report.Problems, "leaked") {
			t.Fatalf("no leak finding in:\n%v", report.Problems)
		}
		reclaimed, err := fs.RebuildAllocator()
		if err != nil {
			t.Fatal(err)
		}
		if reclaimed != 4 {
			t.Fatalf("reclaimed %d blocks, want 4", reclaimed)
		}
		if report := fs.Fsck(); !report.Clean() {
			t.Fatalf("fsck still dirty after allocator rebuild:\n%v", report.Problems)
		}
	})
}
