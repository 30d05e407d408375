package mdfs

import (
	"testing"

	"redbud/internal/sim"
)

// TestBlockLRUMatchesListModel drives the index-threaded LRU and a plain
// recency-ordered slice with the same seeded touches, removals and resets;
// hits and the resident set must agree at every step, and a block's lru
// field must name its node exactly while it is resident.
func TestBlockLRUMatchesListModel(t *testing.T) {
	const capacity = 8
	rng := sim.NewRand(11)
	c := newBlockLRU(capacity)
	var states [3 * capacity]blockState
	var model []int64 // most recent first
	find := func(blk int64) int {
		for i, b := range model {
			if b == blk {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 5000; step++ {
		blk := int64(rng.Intn(3 * capacity))
		switch r := rng.Intn(100); {
		case r < 80:
			i := find(blk)
			if got := c.touch(&states[blk]); got != (i >= 0) {
				t.Fatalf("step %d: touch(%d) reported resident=%v, model %v", step, blk, got, i >= 0)
			}
			if i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
			model = append([]int64{blk}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
		case r < 99:
			c.remove(&states[blk])
			if i := find(blk); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
		default:
			c.reset()
			model = nil
		}
		if c.resident != len(model) {
			t.Fatalf("step %d: %d resident blocks, model %d", step, c.resident, len(model))
		}
		at := c.nodes[0].next
		for i, want := range model {
			if at == 0 || c.nodes[at].st != &states[want] {
				t.Fatalf("step %d: recency position %d differs from the model", step, i)
			}
			at = c.nodes[at].next
		}
		if at != 0 {
			t.Fatalf("step %d: list is longer than the model", step)
		}
		for blk := range states {
			i := states[blk].lru
			if resident := find(int64(blk)) >= 0; resident != (i != 0) || resident && c.nodes[i].st != &states[blk] {
				t.Fatalf("step %d: block %d has node %d, resident in the model: %v", step, blk, i, resident)
			}
		}
	}
}

// TestDropCachesRefillAllocatesNothing empties the cache of a warm store
// and fills it again to capacity: once the block table's pages and the
// node slice exist, neither the reset nor the refill allocates.
func TestDropCachesRefillAllocatesNothing(t *testing.T) {
	const capacity = 64
	s := newStore(t, capacity)
	cycle := func() {
		s.DropCaches()
		for blk := int64(9000); blk < 9000+2*capacity; blk++ {
			s.Read(blk)
		}
	}
	cycle()
	if s.cache.resident != capacity {
		t.Fatalf("%d resident blocks after the refill, want %d", s.cache.resident, capacity)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("DropCaches and a refill allocate %.1f objects, want 0", allocs)
	}
}
