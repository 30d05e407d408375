package mdfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	// A committed-but-unchekpointed change must be part of the image.
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
