package main

import (
	"fmt"

	"redbud/internal/cache"
	"redbud/internal/pfs"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
)

// Shape of data_resilient at scale 1. The cache holds
// cache.DefaultConfig().CapacityBlocks = 16384 blocks: re-read set A
// (12 files, 12288 blocks) fits it, scan B (all 64 files, 65536 blocks) is
// four times larger than it.
const (
	resMounts      = 8
	resFiles       = 64
	resFileBlocks  = 1024 // 4 MiB per file
	resWriteBlocks = 8
	resReadBlocks  = 16
	resSetA        = 12
	resPassesA     = 4
	resTruncated   = 8
	resDeleted     = 8
	resDropRate    = 0.002
)

// newDataResilient generates data_resilient: eight times over, with another
// seeded fault schedule and another victim each time, a fresh decorated mount (client
// cache, 2-way replication, seeded message loss under the retry layer) on
// which interleaved writers fill 64 files while one IO server crashes
// mid-write, the server is revived and repaired, a cache-resident set is
// re-read, every acknowledged block is read back in a scan that overflows
// the cache, and truncate/close/delete barriers end the run.
func newDataResilient(seed uint64, scale float64) *dataWorkload {
	rng := newRNG(seed)
	fileBlocks := scaled(resFileBlocks/resReadBlocks, scale, 2) * resReadBlocks
	w := &dataWorkload{}
	tag := rng.next() & 0xffffff
	for i := 0; i < resFiles; i++ {
		w.names = append(w.names, fmt.Sprintf("r%06x-%02d.dat", tag, i))
	}
	for m := 0; m < resMounts; m++ {
		w.addResilientMount(rng, m, fileBlocks)
	}
	return w
}

func (w *dataWorkload) addResilientMount(rng *rng, m int, fileBlocks int64) {
	faultSeed := rng.next()
	w.mounts = append(w.mounts, mountSpec{
		label:    fmt.Sprintf("resilient%d", m),
		prealloc: true,
		config: func() pfs.Config {
			cfg := pfs.MiF(6)
			cfg.Name = "resilient"
			cc := cache.DefaultConfig()
			cfg.Cache = &cc
			rc := replica.DefaultConfig()
			rc.RF = 2
			cfg.Replication = &rc
			fc := rpc.UniformFaults(faultSeed, resDropRate)
			cfg.RPC.Fault = &fc
			// A short timeout keeps the blackhole phase from dominating
			// simulated time; the default budget of 8 re-sends makes an
			// exhausted call a 1e-20 event at this drop rate.
			cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond}
			return cfg
		},
	})
	w.add(dataOp{kind: opMount, file: uint16(m)})
	for i := 0; i < resFiles; i++ {
		w.add(dataOp{kind: opCreate, file: uint16(i)})
	}

	// Writers: one stream per file, their requests arriving in a seeded
	// order each round. A quarter of the way in every file is fsynced;
	// half way in one IO server goes dark, another one on every mount.
	victim := uint16(m % 6)
	rounds := fileBlocks / resWriteBlocks
	order := make([]int, resFiles)
	fsyncAll := func() {
		rng.perm(order)
		for _, f := range order {
			w.add(dataOp{kind: opFsync, file: uint16(f)})
		}
	}
	for r := int64(0); r < rounds; r++ {
		if r == rounds/4 {
			fsyncAll()
		}
		if r == rounds/2 {
			w.add(dataOp{kind: opCrashOST, file: victim})
		}
		rng.perm(order)
		for _, f := range order {
			w.add(dataOp{kind: opWrite, file: uint16(f), stream: uint16(f), blk: r * resWriteBlocks, count: resWriteBlocks})
		}
	}
	fsyncAll()
	w.add(dataOp{kind: opFlush})
	w.add(dataOp{kind: markPhase})

	w.add(dataOp{kind: opReviveOST, file: victim})
	w.add(dataOp{kind: opRepairDrain})
	w.add(dataOp{kind: opFlush})
	w.add(dataOp{kind: markPhase})

	// Set A fits the cache: after the first pass its re-reads cost no
	// RPCs.
	rng.perm(order)
	setA := append([]int(nil), order[:resSetA]...)
	for pass := 0; pass < resPassesA; pass++ {
		w.jitteredReads(rng, setA, fileBlocks)
	}
	w.add(dataOp{kind: opFlush})
	w.add(dataOp{kind: markPhase})

	// Scan B reads every acknowledged block back, through a cache a
	// quarter of its size.
	rng.perm(order)
	w.jitteredReads(rng, order, fileBlocks)
	w.add(dataOp{kind: opFlush})
	w.add(dataOp{kind: markPhase})

	// Barriers: truncate some files to half and read the kept half back,
	// close everything, delete some others.
	rng.perm(order)
	truncated := order[:resTruncated]
	deleted := order[resTruncated : resTruncated+resDeleted]
	for _, f := range truncated {
		w.add(dataOp{kind: opTruncate, file: uint16(f), count: fileBlocks / 2})
	}
	w.jitteredReads(rng, truncated, fileBlocks/2)
	for f := 0; f < resFiles; f++ {
		w.add(dataOp{kind: opClose, file: uint16(f)})
	}
	for _, f := range deleted {
		w.add(dataOp{kind: opDelete, file: uint16(f)})
	}
	w.add(dataOp{kind: opFlush})
	w.add(dataOp{kind: markPhase})
	w.add(dataOp{kind: markUnmount})
}

// jitteredReads reads the first blocks of each listed file sequentially,
// one reader per file.
func (w *dataWorkload) jitteredReads(rng *rng, files []int, blocks int64) {
	perFile := make([]int, len(files))
	for i := range perFile {
		perFile[i] = int(blocks / resReadBlocks)
	}
	rng.interleave(perFile, func(k, i int) {
		w.add(dataOp{kind: opRead, file: uint16(files[k]), blk: int64(i) * resReadBlocks, count: resReadBlocks})
	})
}
