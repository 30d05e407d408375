package workload

import (
	"redbud/internal/core"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// jitteredArrival drives ranks through their sequences of perRank requests
// in a randomized global arrival order: at each step one unfinished rank,
// chosen uniformly, issues its next request, which issue appends to the
// driver's op list.
//
// Lockstep round-robin would be wrong here: it replays the exact global
// ordering of the write phase, which lets the device queue re-merge a
// fragmented layout into sequential sweeps — something a real cluster's
// rank skew never permits. Random arrival models that skew while staying
// deterministic under the seed.
func jitteredArrival(rng *sim.Rand, ranks int, perRank int64, issue func(rank int, idx int64)) {
	if perRank <= 0 {
		return
	}
	next := make([]int64, ranks)
	unfinished := make([]int, ranks)
	for r := range unfinished {
		unfinished[r] = r
	}
	for len(unfinished) > 0 {
		i := rng.Intn(len(unfinished))
		r := unfinished[i]
		issue(r, next[r])
		next[r]++
		if next[r] >= perRank {
			unfinished[i] = unfinished[len(unfinished)-1]
			unfinished = unfinished[:len(unfinished)-1]
		}
	}
}

// collectiveIO appends to ops one two-phase collective transfer of the
// blocks [base, base+blocks), its writes or its reads as kind says — the
// ROMIO file-domain assignment: the range is partitioned into contiguous
// domains, one per aggregator (one per node of four ranks), and the
// aggregators transfer it in order in chunks of chunk blocks (2048 when
// unset), each written by the aggregator whose domain it starts in.
func collectiveIO(ops []trace.Op, kind trace.OpKind, procs int, chunk, base, blocks int64) []trace.Op {
	if chunk <= 0 {
		chunk = 2048
	}
	aggregators := max(procs/4, 1)
	domain := (blocks + int64(aggregators) - 1) / int64(aggregators)
	for blk := int64(0); blk < blocks; blk += chunk {
		ops = append(ops, rankOp(kind, core.StreamID{Client: uint32(blk / domain)}, base+blk, min(chunk, blocks-blk)))
	}
	return ops
}

// rankOp is a rank's write of, or read of, count blocks at blk: a read
// names no stream.
func rankOp(kind trace.OpKind, stream core.StreamID, blk, count int64) trace.Op {
	if kind == trace.OpRead {
		stream = core.StreamID{}
	}
	return trace.Op{Kind: kind, Stream: stream, Blk: blk, Count: count}
}

// rankStream is rank p's stream: four ranks to a client node.
func rankStream(p int) core.StreamID {
	return core.StreamID{Client: uint32(p / 4), PID: uint32(p % 4)}
}

// appendEvery appends ops to dst, and after every n-th of them what after
// appends, i counting those points from 0; with n = 0 it appends ops alone.
func appendEvery(dst, ops []trace.Op, n int64, after func(dst []trace.Op, i int64) []trace.Op) []trace.Op {
	for i := range ops {
		dst = append(dst, ops[i])
		if k := int64(i + 1); n > 0 && k%n == 0 {
			dst = after(dst, k/n-1)
		}
	}
	return dst
}
