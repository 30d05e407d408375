package workload

import (
	"redbud/internal/core"
	"redbud/internal/sim"
)

// jitteredArrival drives ranks through their per-rank request sequences in
// a randomized global arrival order: at each step one unfinished rank,
// chosen uniformly, issues its next request.
//
// Lockstep round-robin would be wrong here: it replays the exact global
// ordering of the write phase, which lets the device queue re-merge a
// fragmented layout into sequential sweeps — something a real cluster's
// rank skew never permits. Random arrival models that skew while staying
// deterministic under the seed.
func jitteredArrival(rng *sim.Rand, ranks int, requests func(rank int) int64, issue func(rank int, idx int64) error) error {
	next := make([]int64, ranks)
	var unfinished []int
	for r := 0; r < ranks; r++ {
		if requests(r) > 0 {
			unfinished = append(unfinished, r)
		}
	}
	for len(unfinished) > 0 {
		i := rng.Intn(len(unfinished))
		r := unfinished[i]
		if err := issue(r, next[r]); err != nil {
			return err
		}
		next[r]++
		if next[r] >= requests(r) {
			unfinished[i] = unfinished[len(unfinished)-1]
			unfinished = unfinished[:len(unfinished)-1]
		}
	}
	return nil
}

// collectiveIO drives one two-phase collective transfer of the blocks
// [base, base+blocks) — the ROMIO file-domain assignment: the range is
// partitioned into contiguous domains, one per aggregator (one per node of
// four ranks), and the aggregators transfer it in order in chunks of chunk
// blocks (2048 when unset), each issued by the aggregator whose domain it
// starts in.
func collectiveIO(procs int, chunk, base, blocks int64, op func(core.StreamID, int64, int64) error) error {
	if chunk <= 0 {
		chunk = 2048
	}
	aggregators := max(procs/4, 1)
	domain := (blocks + int64(aggregators) - 1) / int64(aggregators)
	for blk := int64(0); blk < blocks; blk += chunk {
		agg := core.StreamID{Client: uint32(blk / domain), PID: 0}
		if err := op(agg, base+blk, min(chunk, blocks-blk)); err != nil {
			return err
		}
	}
	return nil
}
