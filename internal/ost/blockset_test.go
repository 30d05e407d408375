package ost

import (
	"fmt"
	"testing"

	"redbud/internal/sim"
)

// TestTagStoreMatchesMap drives the paged tag store and a map oracle with
// the same random set, setSlot and clearRange calls, clustered around page
// edges, and checks get and slotAt on both after every call — reads and
// clears also run past the last page of the table and below block 0.
func TestTagStoreMatchesMap(t *testing.T) {
	const page = int64(1) << tagPageBits
	const blocks = 5*page + 17 // the last page is partly beyond the volume
	for _, seed := range []uint64{44, 45} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ts := newTagStore(blocks)
			oracle := make(map[int64]tagSlot)
			rng := sim.NewRand(seed)
			// pick returns a block of the volume near a page edge.
			pick := func() int64 {
				b := rng.Int63n(6)*page + rng.Int63n(9) - 4
				return min(max(b, 0), blocks-1)
			}
			check := func(step int, b int64) {
				t.Helper()
				want := oracle[b]
				if got := ts.slotAt(b); got != want {
					t.Fatalf("step %d: slotAt(%d) = %+v, oracle %+v", step, b, got, want)
				}
				got, ok := ts.get(b)
				if ok != (want.logical1 != 0) || ok && (got.obj != want.obj || got.logical != want.logical1-1) {
					t.Fatalf("step %d: get(%d) = %+v, %v; oracle %+v", step, b, got, ok, want)
				}
			}
			for step := 0; step < 20000; step++ {
				b := pick()
				switch rng.Intn(4) {
				case 0:
					obj, l := ObjectID(1+rng.Intn(5)), rng.Int63n(1000)
					ts.set(b, obj, l)
					oracle[b] = tagSlot{obj: obj, logical1: l + 1}
				case 1:
					s := tagSlot{}
					if rng.Intn(3) > 0 {
						s = tagSlot{obj: ObjectID(rng.Intn(5)), logical1: rng.Int63n(1000)}
					}
					ts.setSlot(b, s)
					if s == (tagSlot{}) {
						delete(oracle, b)
					} else {
						oracle[b] = s
					}
				case 2:
					lo, end := b-rng.Int63n(3), b+rng.Int63n(2*page)
					ts.clearRange(lo, end)
					for k := range oracle {
						if k >= lo && k < end {
							delete(oracle, k)
						}
					}
				case 3:
					check(step, -1-rng.Int63n(4))
					check(step, 6*page+rng.Int63n(3*page))
				}
				check(step, b)
				check(step, pick())
			}
			for b := range oracle {
				check(-1, b)
			}
		})
	}
}

// TestTagStoreAllocatesTouchedPagesOnly pins the store's memory shape:
// reads and clears of untouched blocks allocate nothing, and a write
// allocates only the one page that holds it.
func TestTagStoreAllocatesTouchedPagesOnly(t *testing.T) {
	const page = int64(1) << tagPageBits
	ts := newTagStore(64 * page)
	if n := testing.AllocsPerRun(10, func() {
		ts.get(5 * page)
		ts.slotAt(63*page + 1)
		ts.clearRange(0, 64*page)
	}); n != 0 {
		t.Fatalf("reads and clears of an empty store allocate %.0f objects, want 0", n)
	}
	ts.set(40*page+3, 7, 9)
	pages := 0
	for _, p := range ts.pages {
		if p != nil {
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("one write allocated %d pages, want 1", pages)
	}
	if n := testing.AllocsPerRun(10, func() { ts.set(40*page+4, 7, 10) }); n != 0 {
		t.Fatalf("a write into an allocated page allocates %.0f objects, want 0", n)
	}
}
