package mdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"redbud/internal/extent"
	"redbud/internal/inode"
)

// populate churns a file system the way cmd/miffsck gen does: directories,
// files, fragmented layouts, and a deletion pass (which frees blocks that
// were written earlier — the write-then-forget pattern).
func populateImage(t *testing.T, m *FS) {
	t.Helper()
	for d := 0; d < 2; d++ {
		dir, err := m.Mkdir(m.Root(), fmt.Sprintf("dir%d", d))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			ino, err := m.Create(dir, fmt.Sprintf("f%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				var exts []extent.Extent
				for j := 0; j < 12; j++ {
					exts = append(exts, extent.Extent{Logical: int64(j) * 2, Physical: int64(d*10000 + i*64 + j*4), Count: 2})
				}
				if err := m.SetLayout(ino, exts); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 40; i += 9 {
			if err := m.Unlink(dir, fmt.Sprintf("f%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestImageRoundTripJournalOnly saves an image whose last changes live only
// in the journal overlay (the crash-consistent state) and reloads it. This
// is a regression test: blocks written then freed within one transaction
// used to leave nil overlay entries that corrupted the serialized image.
func TestImageRoundTripJournalOnly(t *testing.T) {
	for _, layout := range []Layout{LayoutEmbedded, LayoutNormal} {
		t.Run(layout.String(), func(t *testing.T) {
			m, err := New(DefaultConfig(layout))
			if err != nil {
				t.Fatal(err)
			}
			populateImage(t, m)
			if err := m.Store().Commit(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.SaveImage(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadImage(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rep := got.Fsck()
			if !rep.Clean() {
				t.Fatalf("fsck after reload: %v", rep.Problems)
			}
			if rep.Files == 0 || rep.Dirs < 2 {
				t.Fatalf("reloaded namespace too small: %+v", rep)
			}
		})
	}
}

// imageDamage lists on-disk damage that points a decoder outside the
// device: each case rewrites one record or the superblock of a populated
// file system.
var imageDamage = []struct {
	name   string
	damage func(t testing.TB, fs *FS)
}{
	{"dir-spill-outside", func(t testing.TB, fs *FS) {
		rewriteRecord(t, fs, mustLookup(t, fs, fs.Root(), "proj"), func(rec *inode.Inode) {
			rec.Spill[0] = fs.cfg.Blocks + 5
		})
	}},
	{"file-spill-outside", func(t testing.TB, fs *FS) {
		proj := mustLookup(t, fs, fs.Root(), "proj")
		rewriteRecord(t, fs, mustLookup(t, fs, proj, "f03"), func(rec *inode.Inode) {
			rec.Spill[0] = fs.cfg.Blocks + 5
		})
	}},
	{"dir-extent-outside", func(t testing.TB, fs *FS) {
		rewriteRecord(t, fs, mustLookup(t, fs, fs.Root(), "proj"), func(rec *inode.Inode) {
			rec.Inline[0].Physical = fs.cfg.Blocks + 5
		})
	}},
	{"root-block-outside", func(t testing.TB, fs *FS) {
		rewriteSuper(fs, offSRootBlk, uint64(fs.cfg.Blocks+5))
	}},
	{"root-offset-past-block", func(t testing.TB, fs *FS) {
		rewriteSuper(fs, offSRootOff, uint64(fs.cfg.BlockSize-recordSize/2))
	}},
}

// rewriteRecord applies edit to the on-disk record of ino.
func rewriteRecord(t testing.TB, fs *FS, ino inode.Ino, edit func(rec *inode.Inode)) {
	t.Helper()
	loc, err := fs.locate(fs.Resolve(ino))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fs.inodeAt(fs.store, loc.blk, loc.off)
	if err != nil {
		t.Fatal(err)
	}
	edit(rec)
	if err := fs.writeInodeAt(loc.blk, loc.off, rec); err != nil {
		t.Fatal(err)
	}
}

// rewriteSuper overwrites one 64-bit superblock field.
func rewriteSuper(fs *FS, off int, v uint64) {
	sb := append([]byte(nil), fs.store.Read(0)...)
	binary.LittleEndian.PutUint64(sb[off:], v)
	fs.store.Write(0, sb)
}

// loadAndCheck loads an image and, when it mounts, checks it. A panic in
// either is returned as an error of its own.
func loadAndCheck(img []byte) (rep *FsckReport, loadErr, panicked error) {
	defer func() {
		if p := recover(); p != nil {
			panicked = fmt.Errorf("panic: %v", p)
		}
	}()
	fs, err := LoadImage(bytes.NewReader(img))
	if err != nil {
		return nil, err, nil
	}
	return fs.Fsck(), nil, nil
}

// TestLoadImageSurvivesDamage saves each damaged file system and loads it
// back: LoadImage must refuse the image or mount one whose fsck reports
// the damage — the decoders Remount and RebuildAllocator share with fsck
// used to index outside the device and panic instead.
func TestLoadImageSurvivesDamage(t *testing.T) {
	for _, tc := range imageDamage {
		for _, layout := range []Layout{LayoutNormal, LayoutEmbedded} {
			t.Run(tc.name+"/"+layout.String(), func(t *testing.T) {
				fs := newFS(t, layout)
				populate(t, fs)
				tc.damage(t, fs)
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
				var img bytes.Buffer
				if err := fs.SaveImage(&img); err != nil {
					t.Fatal(err)
				}
				rep, loadErr, panicked := loadAndCheck(img.Bytes())
				switch {
				case panicked != nil:
					t.Fatal(panicked)
				case loadErr != nil:
					t.Logf("refused: %v", loadErr)
				case rep.Clean():
					t.Fatal("damaged image mounted and checked clean")
				default:
					t.Logf("mounted; fsck: %v", rep.Problems)
				}
			})
		}
	}
}

// TestImageRoundTripCheckpointed is the same walk with everything synced
// home first.
func TestImageRoundTripCheckpointed(t *testing.T) {
	m, err := New(DefaultConfig(LayoutEmbedded))
	if err != nil {
		t.Fatal(err)
	}
	populateImage(t, m)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep := got.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after reload: %v", rep.Problems)
	}
}
