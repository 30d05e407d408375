package extent

import (
	"math/bits"
	"testing"

	"redbud/internal/sim"
)

// sink keeps the maps and slices of the allocation tests on the heap, as
// an object's map is.
var sink any

// interleaved returns the inserts of streams writers, each appending
// perStream four-block extents to its own logical region in round-robin
// order; half the time an extent continues its stream's previous one
// physically and merges, so the map ends near streams·perStream/2
// extents.
func interleaved(streams, perStream int, seed uint64) []Extent {
	rng := sim.NewRand(seed)
	region := int64(perStream) * 4
	last := make([]int64, streams) // physical end of each stream's last extent
	for s := range last {
		last[s] = int64(s) * region * 2
	}
	out := make([]Extent, 0, streams*perStream)
	for k := 0; k < perStream; k++ {
		for s := 0; s < streams; s++ {
			e := Extent{Logical: int64(s)*region + int64(k)*4, Physical: last[s], Count: 4}
			if rng.Intn(2) == 0 {
				e.Physical += 4
			}
			last[s] = e.Physical + 4
			out = append(out, e)
		}
	}
	return out
}

// TestSmallMapAllocatesLikeASlice pins the flat head: a map of at most one
// chunk's worth of extents allocates exactly as often as a slice grown by
// append to the same length, in whatever order the extents arrive.
func TestSmallMapAllocatesLikeASlice(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 33, chunkCap - 1, chunkCap} {
		exts := make([]Extent, n) // a hole between each pair: nothing merges
		for i := range exts {
			exts[i] = Extent{Logical: 2 * int64(i), Physical: 2 * int64(i), Count: 1}
		}
		slice := testing.AllocsPerRun(20, func() {
			var s []Extent
			for _, e := range exts {
				s = append(s, e)
			}
			sink = s
		})
		m := testing.AllocsPerRun(20, func() {
			m := new(Map)
			for i := len(exts) - 1; i >= 0; i-- { // descending: every insert shifts
				if err := m.Insert(exts[i]); err != nil {
					t.Fatal(err)
				}
			}
			sink = m
		})
		// Both counts include one allocation besides the growth: the Map
		// itself, and the slice header boxed into sink.
		if m != slice {
			t.Errorf("%d extents: the map allocates %.0f times, an append-grown slice %.0f", n, m, slice)
		}
	}
}

// TestInterleavedInsertsAllocateLogarithmically bounds a large map's
// allocations: 4,096 interleaved inserts into 64 regions allocate the
// head's growth, the slabs (each as large as the map) and the chunk list's
// growth, each O(log n) — at most 3·log2(4096) = 36 times.
func TestInterleavedInsertsAllocateLogarithmically(t *testing.T) {
	exts := interleaved(64, 64, 1)
	bound := 3 * float64(bits.Len(uint(len(exts)))-1)
	var m *Map
	allocs := testing.AllocsPerRun(5, func() {
		m = new(Map)
		for _, e := range exts {
			if err := m.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		sink = m
	})
	if allocs > bound {
		t.Fatalf("%d inserts (%d extents in %d chunks) allocate %.0f times, want ≤ %.0f", len(exts), m.Len(), m.chunks(), allocs, bound)
	}
	t.Logf("%d inserts: %d extents in %d chunks, %.0f allocations", len(exts), m.Len(), m.chunks(), allocs)
}

// BenchmarkInsertInterleaved builds one object's map the way 64 streams
// writing their own regions of a shared file do: 4,096 inserts, about 2 k
// extents at the end. ns/op is one whole map.
func BenchmarkInsertInterleaved(b *testing.B) {
	exts := interleaved(64, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m Map
		for _, e := range exts {
			if err := m.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		sink = m.Len()
	}
}
