package mdfs

import (
	"bytes"
	"testing"
)

// fuzzConfig is the small device the fuzz seeds are built on: 1 KiB
// blocks in four groups, so a populated image is a few dozen blocks.
func fuzzConfig(layout Layout) Config {
	cfg := DefaultConfig(layout)
	cfg.Blocks = 2048
	cfg.BlockSize = 1024
	cfg.JournalBlocks = 128
	cfg.TableBlocks = 2
	cfg.GroupBlocks = 512
	cfg.InodesPerGroup = 256
	cfg.CacheBlocks = 64
	return cfg
}

// fuzzSeed populates a fuzz-sized file system, lets damage have at it, and
// returns the saved image.
func fuzzSeed(f *testing.F, layout Layout, damage func(fs *FS)) []byte {
	fs, err := New(fuzzConfig(layout))
	if err != nil {
		f.Fatal(err)
	}
	populate(f, fs)
	damage(fs)
	if err := fs.Sync(); err != nil {
		f.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.SaveImage(&img); err != nil {
		f.Fatal(err)
	}
	return img.Bytes()
}

// FuzzLoadImageFsck feeds LoadImage arbitrary images: it must return, and
// Fsck on whatever it mounts must return — neither may panic. An image is
// input from outside the program, and these are the tools that must end
// with a finding on any damage. Seeds are a clean image per layout, one per
// corruption kind, and the out-of-device damage of TestLoadImageSurvivesDamage.
// The geometry header is fuzzed too: LoadImage bounds it before sizing
// anything by it.
func FuzzLoadImageFsck(f *testing.F) {
	for _, layout := range []Layout{LayoutNormal, LayoutEmbedded} {
		f.Add(fuzzSeed(f, layout, func(*FS) {}))
		for _, tc := range fsckCorruptionCases {
			for _, l := range tc.layouts {
				if l == layout {
					f.Add(fuzzSeed(f, layout, func(fs *FS) {
						if err := fs.InjectCorruption(tc.kind); err != nil {
							f.Fatal(err)
						}
					}))
				}
			}
		}
		for _, tc := range imageDamage {
			f.Add(fuzzSeed(f, layout, func(fs *FS) { tc.damage(f, fs) }))
		}
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		fs, err := LoadImage(bytes.NewReader(img))
		if err != nil {
			return
		}
		fs.Fsck()
	})
}
