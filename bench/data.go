package main

import (
	"fmt"
	"io"

	"redbud/internal/core"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// opKind enumerates what a data-path op list can ask of a mount. The first
// group are driver calls (they count as ops); the marks after opMarks are
// measurement points of the harness and are not.
type opKind uint8

const (
	opMount opKind = iota // build a fresh mount from mounts[file]
	opCreate
	opWrite
	opRead
	opFlush
	opFsync
	opTruncate
	opClose
	opDelete
	opCrashOST
	opReviveOST
	opRepairDrain

	opMarks
	markPhase // a phase ends: add its simulated elapsed time
	// markUnmount: the mount is done. Add its counts, run its checks, and on
	// an observed mount export the registry and the spans; the export is not
	// in the op list, so data_observed's list is data_shared's.
	markUnmount
)

// dataOp is one entry of a data-path op list. file indexes the files of
// the current mount (the OST for crash/revive, the mount for opMount);
// count is the size hint for opCreate and the new size for opTruncate.
type dataOp struct {
	kind   opKind
	file   uint16
	stream uint16
	blk    int64
	count  int64
}

// mountSpec describes one fresh mount of a data-path workload.
type mountSpec struct {
	label    string // names the mount's shape quantities
	config   func() pfs.Config
	observed bool // mount with a fresh registry and tracer of its own
	// prealloc marks a policy whose persistent preallocation legitimately
	// outlives Close: CheckConsistency counts it as leaked blocks, which
	// "are legal on a live volume", so only the other mounts must show 0.
	prealloc bool
	// fileBlocks sizes the shared file for the read-throughput shape.
	fileBlocks int64
}

// dataWorkload is a generated data-path workload: the mounts it builds and
// the flat op list it applies to them.
type dataWorkload struct {
	mounts []mountSpec
	names  []string // file names, indexed like dataOp.file
	ops    []dataOp
	calls  int64
	// shapes, when set, checks the paper's shapes on the verifying
	// iteration's quantities.
	shapes func(it *iter)
	// expectUnwritten makes the checker expect a hole read to succeed: the
	// deliberately wrong expectation of the negative test.
	expectUnwritten bool
}

func (w *dataWorkload) opsPerIter() int64 { return w.calls }

func (w *dataWorkload) add(op dataOp) {
	w.ops = append(w.ops, op)
	if op.kind < opMarks {
		w.calls++
	}
}

func (w *dataWorkload) opHash() uint64 {
	h := newHasher()
	for _, n := range w.names {
		h.str(n)
	}
	for _, op := range w.ops {
		h.u64(uint64(op.kind)<<32 | uint64(op.file)<<16 | uint64(op.stream))
		h.u64(uint64(op.blk))
		h.u64(uint64(op.count))
	}
	return h.sum
}

// ostClock is one IO server's device timeline: its disk and its data link
// pipeline, so the longer of the two is the server's elapsed time.
type ostClock struct{ disk, link sim.Ns }

func readClocks(fs *pfs.FS, dst []ostClock) []ostClock {
	dst = dst[:0]
	for i := 0; i < fs.OSTs(); i++ {
		dst = append(dst, ostClock{
			disk: fs.OST(i).Disk().Stats().BusyNs,
			link: fs.Fabric().Link(i).Stats().BusyNs,
		})
	}
	return dst
}

// phaseElapsed is the simulated duration of a data phase that ran in
// parallel across the stripe: the largest per-server advance.
func phaseElapsed(before, after []ostClock) sim.Ns {
	var max sim.Ns
	for i := range after {
		d := after[i].disk - before[i].disk
		if l := after[i].link - before[i].link; l > d {
			d = l
		}
		if d > max {
			max = d
		}
	}
	return max
}

// iterate applies the op list: every opMount builds a fresh mount, so each
// iteration does identical work.
func (w *dataWorkload) iterate(it *iter) {
	var (
		fs            *pfs.FS
		spec          mountSpec
		reg           *telemetry.Registry
		tr            *telemetry.Tracer
		files         []*pfs.File
		before, after []ostClock
		phaseNo       int
		inst          = noSpan
	)
	for i := range w.ops {
		op := &w.ops[i]
		switch op.kind {
		case opMount:
			spec = w.mounts[op.file]
			cfg := spec.config()
			reg, tr = it.observers()
			if spec.observed && reg == nil {
				reg, tr = telemetry.NewRegistry(), telemetry.NewTracer(nil)
			}
			cfg.Metrics, cfg.Trace = reg, tr
			inst = it.instance()
			sp := it.begin(spPfsNew)
			var err error
			fs, err = pfs.New(cfg)
			it.end(sp, err)
			if err != nil {
				return
			}
			files = make([]*pfs.File, len(w.names))
			before = readClocks(fs, before)
			phaseNo = 0
		case opCreate:
			sp := it.begin(spPfsCreate)
			f, err := fs.Create(fs.Root(), w.names[op.file], op.count)
			it.end(sp, err)
			if err != nil {
				return
			}
			files[op.file] = f
		case opWrite:
			sp := it.begin(spPfsWrite)
			err := files[op.file].Write(core.StreamID{Client: uint32(op.stream) / 4, PID: uint32(op.stream) % 4}, op.blk, op.count)
			it.end(sp, err)
		case opRead:
			sp := it.begin(spPfsRead)
			err := files[op.file].Read(op.blk, op.count)
			it.end(sp, err)
		case opFlush:
			sp := it.begin(spPfsFlush)
			fs.Flush()
			it.end(sp, nil)
		case opFsync:
			sp := it.begin(spPfsFsync)
			err := files[op.file].Fsync()
			it.end(sp, err)
		case opTruncate:
			sp := it.begin(spPfsTruncate)
			err := files[op.file].Truncate(op.count)
			it.end(sp, err)
		case opClose:
			sp := it.begin(spPfsClose)
			err := files[op.file].Close()
			it.end(sp, err)
		case opDelete:
			sp := it.begin(spPfsDelete)
			err := fs.Delete(fs.Root(), w.names[op.file])
			it.end(sp, err)
			files[op.file] = nil
		case opCrashOST:
			sp := it.begin(spPfsCrashRepair)
			err := fs.CrashOST(int(op.file))
			it.end(sp, err)
		case opReviveOST:
			sp := it.begin(spPfsCrashRepair)
			err := fs.ReviveOST(int(op.file))
			it.end(sp, err)
		case opRepairDrain:
			sp := it.begin(spPfsCrashRepair)
			err := fs.RepairDrain()
			it.end(sp, err)

		case markPhase:
			after = readClocks(fs, after)
			el := phaseElapsed(before, after)
			it.sim.Ns += el
			if it.verify && spec.fileBlocks > 0 && el > 0 {
				bytes := spec.fileBlocks * fs.Config().OST.Disk.BlockSize
				it.shape(fmt.Sprintf("%s/phase%d_MBps", spec.label, phaseNo), sim.MBps(bytes, el))
			}
			before, after = after, before
			phaseNo++
		case markUnmount:
			if spec.observed {
				sp := it.begin(spTelemetryExport)
				err := reg.WriteJSON(io.Discard)
				_ = tr.Spans()
				it.end(sp, err)
			}
			w.unmount(it, fs, spec, files)
			it.observed(tr)
			it.endInstance(inst)
			fs, files = nil, nil
		}
	}
	if it.verify && w.shapes != nil {
		w.shapes(it)
	}
}

// unmount adds a finished mount's simulated counts and, on the verifying
// iteration, runs the data-path correctness checks.
func (w *dataWorkload) unmount(it *iter, fs *pfs.FS, spec mountSpec, files []*pfs.File) {
	st := fs.DataStats().Add(fs.MDS().FS().Store().Disk().Stats())
	it.sim.Positionings += st.Positionings
	it.sim.DiskRequests += st.Requests
	var extents int64
	for _, f := range files {
		if f == nil {
			continue
		}
		n, err := fs.TotalExtents(f)
		if err != nil {
			it.failed++
			it.problem("%s: extent count: %v", spec.label, err)
		}
		extents += int64(n)
	}
	it.sim.Extents += extents
	if !it.verify {
		return
	}
	it.shape(spec.label+"/extents", float64(extents))
	for i := 0; i < fs.OSTs(); i++ {
		rep := fs.OST(i).CheckConsistency()
		it.check(rep.Clean(), "%s: ost%d inconsistent: %v", spec.label, i, rep.Problems)
		it.check(spec.prealloc || rep.LeakedBlocks == 0, "%s: ost%d leaked %d blocks", spec.label, i, rep.LeakedBlocks)
	}
	rep := fs.MDS().FS().Fsck()
	it.check(rep.Clean(), "%s: mds fsck: %v", spec.label, rep.Problems)
	if mgr := fs.Replication(); mgr != nil {
		it.check(mgr.FullyReplicated(), "%s: %d components under-replicated after the repair drain", spec.label, mgr.UnderReplicated())
	}
	if w.expectUnwritten {
		for _, f := range files {
			if f != nil {
				err := f.Read(1<<30, 1)
				it.check(err == nil, "%s: read-back of an unwritten block: %v", spec.label, err)
				break
			}
		}
	}
}

// Figure 6(a)'s sweep, trimmed to the two stream counts the paper's claim
// is read at. The shared file is 384 MiB at scale 1: with the observer on
// (data_observed, the identical list) an iteration over 1 GiB takes 4.7 s,
// and seven of them do not fit a run.
var (
	sharedStreams  = []int{32, 64}
	sharedPolicies = []pfs.PolicyKind{pfs.PolicyReservation, pfs.PolicyStatic, pfs.PolicyOnDemand}
)

const (
	sharedWriteBlocks = 4  // 16 KiB write requests
	sharedReadBlocks  = 16 // 64 KiB read requests
	sharedSegments    = 1024
)

// newDataShared generates data_shared (and, with observed set, the
// identical op list of data_observed): per stream count and policy, a
// fresh mount on which interleaved streams write their regions of one
// shared file and segment readers read it back with arrival jitter.
func newDataShared(seed uint64, scale float64, observed bool) *dataWorkload {
	rng := newRNG(seed)
	fileBlocks := scaled(384, scale, 1) * 256
	w := &dataWorkload{
		names:  []string{fmt.Sprintf("shared-%08x.odb", rng.next()&0xffffffff)},
		shapes: sharedShapes,
	}
	for _, streams := range sharedStreams {
		for _, policy := range sharedPolicies {
			policy := policy
			w.mounts = append(w.mounts, mountSpec{
				label:      fmt.Sprintf("%s@%d", policy, streams),
				observed:   observed,
				prealloc:   policy == pfs.PolicyOnDemand,
				fileBlocks: fileBlocks,
				config: func() pfs.Config {
					cfg := pfs.MiF(5).WithPolicy(policy)
					cfg.ReservationWindow = 2048
					return cfg
				},
			})
			w.add(dataOp{kind: opMount, file: uint16(len(w.mounts) - 1)})
			w.add(dataOp{kind: opCreate, count: fileBlocks})

			// Phase 1: every stream extends its own region; the seed
			// decides the order in which the streams' requests arrive in
			// each round.
			region := fileBlocks / int64(streams)
			order := make([]int, streams)
			for off := int64(0); off < region; off += sharedWriteBlocks {
				rng.perm(order)
				for _, s := range order {
					w.add(dataOp{kind: opWrite, stream: uint16(s), blk: int64(s)*region + off, count: sharedWriteBlocks})
				}
			}
			w.add(dataOp{kind: opFlush})
			w.add(dataOp{kind: markPhase})

			// Phase 2: the file is split into segments, each read
			// sequentially by a reader of its own.
			segments := int64(sharedSegments)
			if max := fileBlocks / sharedReadBlocks; segments > max {
				segments = max
			}
			segBlocks := fileBlocks / segments
			perSeg := make([]int, segments)
			for i := range perSeg {
				perSeg[i] = int(segBlocks / sharedReadBlocks)
			}
			rng.interleave(perSeg, func(seg, i int) {
				w.add(dataOp{kind: opRead, blk: int64(seg)*segBlocks + int64(i)*sharedReadBlocks, count: sharedReadBlocks})
			})
			w.add(dataOp{kind: opFlush})
			w.add(dataOp{kind: markPhase})
			w.add(dataOp{kind: opClose})
			w.add(dataOp{kind: markUnmount})
		}
	}
	return w
}

// sharedShapes verifies the paper's data-path claim on the verifying
// iteration's quantities: at 64 streams on-demand preallocation leaves
// fewer extents than reservation and reads back faster. EXPERIMENTS.md
// validates shapes, not magnitudes, so nothing more is asserted.
func sharedShapes(it *iter) {
	od, res := it.shapes["on-demand@64/extents"], it.shapes["reservation@64/extents"]
	it.check(od < res, "shape: on-demand extents %.0f not below reservation %.0f at 64 streams", od, res)
	odr, resr := it.shapes["on-demand@64/phase1_MBps"], it.shapes["reservation@64/phase1_MBps"]
	it.check(odr > resr, "shape: on-demand read %.1f MB/s not above reservation %.1f MB/s at 64 streams", odr, resr)
}
