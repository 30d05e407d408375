package pfs

import (
	"testing"

	"redbud/internal/ost"
	"redbud/internal/sim"
)

// stripeFixture builds an FS with just enough state for the geometry
// helpers: the stripe unit and the OST count.
func stripeFixture(su int64, osts int) *FS {
	return &FS{cfg: Config{StripeBlocks: su}, osts: make([]*ost.Server, osts)}
}

// TestStripeRangePartitionsExactly is the striping property test: for
// random geometries and ranges, the pieces of stripeRange must map every
// file-logical block in [blk, blk+count) to exactly the (OST, component
// block) the round-robin layout dictates — full coverage, no overlap —
// and whole-file per-OST totals must agree with componentBlocks.
func TestStripeRangePartitionsExactly(t *testing.T) {
	rng := sim.NewRand(0xa11ce)
	for trial := 0; trial < 500; trial++ {
		su := 1 + rng.Int63n(64)
		osts := 1 + int(rng.Int63n(12))
		blk := rng.Int63n(4 * su * int64(osts))
		count := 1 + rng.Int63n(2048)
		fs := stripeFixture(su, osts)

		// Expand the pieces into a per-block map of the component blocks
		// each OST receives.
		type loc struct {
			ost  int
			comp int64
		}
		got := make(map[int64]loc)
		perOST := make([]int64, osts)
		next := blk
		for _, p := range fs.appendStripeRange(nil, blk, count) {
			if p.count <= 0 {
				t.Fatalf("trial %d (su=%d osts=%d [%d,+%d)): empty piece %+v",
					trial, su, osts, blk, count, p)
			}
			if p.ostIdx < 0 || p.ostIdx >= osts {
				t.Fatalf("trial %d: piece targets OST %d of %d", trial, p.ostIdx, osts)
			}
			for off := int64(0); off < p.count; off++ {
				b := next + off
				if _, dup := got[b]; dup {
					t.Fatalf("trial %d: block %d mapped twice", trial, b)
				}
				got[b] = loc{ost: p.ostIdx, comp: p.logical + off}
			}
			next += p.count
			perOST[p.ostIdx] += p.count
		}
		if next != blk+count {
			t.Fatalf("trial %d (su=%d osts=%d): pieces cover [%d,%d), want [%d,%d)",
				trial, su, osts, blk, next, blk, blk+count)
		}

		// Every block must land where the round-robin layout puts it.
		for b := blk; b < blk+count; b++ {
			stripe := b / su
			want := loc{
				ost:  int(stripe % int64(osts)),
				comp: (stripe/int64(osts))*su + b%su,
			}
			if got[b] != want {
				t.Fatalf("trial %d (su=%d osts=%d): block %d mapped to %+v, want %+v",
					trial, su, osts, b, got[b], want)
			}
		}

		// Whole-file totals agree with componentBlocks.
		total := blk + count
		wholeFile := stripeFixture(su, osts)
		fromRange := make([]int64, osts)
		for _, p := range wholeFile.appendStripeRange(nil, 0, total) {
			fromRange[p.ostIdx] += p.count
		}
		var sum int64
		for i := 0; i < osts; i++ {
			if cb := wholeFile.componentBlocks(total, i); cb != fromRange[i] {
				t.Fatalf("trial %d (su=%d osts=%d total=%d): OST %d gets %d blocks by stripeRange, %d by componentBlocks",
					trial, su, osts, total, i, fromRange[i], cb)
			}
			sum += fromRange[i]
		}
		if sum != total {
			t.Fatalf("trial %d: per-OST totals sum to %d, want %d", trial, sum, total)
		}
	}
}
