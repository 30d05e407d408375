package mdfs

import (
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
