package mdfs

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkDirFill fills one normal-layout directory to 500 and to 5,000
// entries with synchronous commits, the Metarates create phase. ns/create
// should be about the same at both sizes: the bookkeeping of a create does
// not depend on how full the directory is.
func BenchmarkDirFill(b *testing.B) {
	for _, entries := range []int{500, 5000} {
		names := make([]string, entries)
		for i := range names {
			names[i] = fmt.Sprintf("file%06d", i)
		}
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := DefaultConfig(LayoutNormal)
				cfg.SyncWrites = true
				fs, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				dir, err := fs.Mkdir(fs.Root(), "d")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, name := range names {
					if _, err := fs.Create(dir, name); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/create")
		})
	}
}

// BenchmarkLoadImageFsck loads and checks one aged image per layout — 64
// directories of 1,000 files, built once — the fsck_aged iteration at an
// eighth of its file count, so a profile of that path needs no
// benchmark-module build: go test -run '^$' -bench LoadImageFsck
// -cpuprofile cpu.out ./internal/mdfs.
func BenchmarkLoadImageFsck(b *testing.B) {
	for _, layout := range []Layout{LayoutEmbedded, LayoutNormal} {
		img := agedImage(b, layout, 64, 1000)
		b.Run(layout.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs, err := LoadImage(bytes.NewReader(img))
				if err != nil {
					b.Fatal(err)
				}
				if rep := fs.Fsck(); !rep.Clean() {
					b.Fatalf("fsck: %v", rep.Problems)
				}
			}
		})
	}
}
