package mdfs

import (
	"testing"

	"redbud/internal/sim"
)

// TestBlockLRUMatchesListModel drives the index-threaded LRU and a plain
// recency-ordered slice with the same seeded touches, removals and resets;
// hits and the resident set must agree at every step.
func TestBlockLRUMatchesListModel(t *testing.T) {
	const capacity = 8
	rng := sim.NewRand(11)
	c := newBlockLRU(capacity)
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
			if got := c.touch(blk); got != (i >= 0) {
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
			c.remove(blk)
			if i := find(blk); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
		default:
			c.reset()
			model = nil
		}
		if len(c.idx) != len(model) {
			t.Fatalf("step %d: %d resident blocks, model %d", step, len(c.idx), len(model))
		}
		at := c.nodes[0].next
		for i, want := range model {
			if at == 0 || c.nodes[at].blk != want {
				t.Fatalf("step %d: recency position %d differs from the model", step, i)
			}
			at = c.nodes[at].next
		}
		if at != 0 {
			t.Fatalf("step %d: list is longer than the model", step)
		}
	}
}
