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

// refComponentBlocks is the reference componentBlocks is checked against:
// walk the file one stripe unit at a time and count the units OST i gets.
func refComponentBlocks(su int64, osts int, total int64, i int) int64 {
	var n int64
	for b := int64(0); b < total; b += su {
		end := min(b+su, total)
		if int((b/su)%int64(osts)) == i {
			n += end - b
		}
	}
	return n
}

// TestComponentBlocksMatchesWalk checks the closed-form per-OST share of a
// file against the stripe-by-stripe walk, at every edge of a stripe and a
// stripe row.
func TestComponentBlocksMatchesWalk(t *testing.T) {
	for _, su := range []int64{1, 3, 64} {
		for osts := 1; osts <= 5; osts++ {
			fs := stripeFixture(su, osts)
			for total := int64(0); total <= 3*su*int64(osts)+1; total++ {
				for i := 0; i < osts; i++ {
					if got, want := fs.componentBlocks(total, i), refComponentBlocks(su, osts, total, i); got != want {
						t.Fatalf("su=%d osts=%d total=%d: OST %d gets %d blocks, the walk says %d",
							su, osts, total, i, got, want)
					}
				}
			}
		}
	}
}

// TestTruncateRejectsPastCapacity: a truncate past the mount's data
// capacity is an error, and costs no walk over the size it names.
func TestTruncateRejectsPastCapacity(t *testing.T) {
	fs, err := New(MiF(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create(fs.Root(), "t.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(fs.OSTs()) * fs.Config().OST.Blocks
	for _, size := range []int64{-1, capacity + 1, 1 << 32, 1<<63 - 1} {
		if err := h.Truncate(size); err == nil {
			t.Fatalf("Truncate(%d) on a mount of %d data blocks succeeded", size, capacity)
		}
	}
	if err := h.Truncate(capacity); err != nil {
		t.Fatalf("Truncate to the capacity itself: %v", err)
	}
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
