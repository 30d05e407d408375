package main

import (
	"fmt"

	"redbud/internal/disk"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/telemetry"
)

// metaKind enumerates the entries of a metadata op list.
type metaKind uint8

const (
	mArm metaKind = iota // build a fresh server from arms[dir]
	mMkdir
	mCreate
	mTouch // lookup by name, then utime: two calls
	mReaddirPlus
	mUnlink
	mRename
	mSync // Sync, then cold caches for the next phase

	mMarks
	markReaddir // a readdir-stat phase ends: note its disk requests
	markArmEnd  // the arm is done: add its counts, run its checks
)

// metaOp is one entry of a metadata op list. name (and name2, the new name
// of a rename) index the workload's name table; count is the number of
// records a readdirplus must return.
type metaOp struct {
	kind        metaKind
	fill        bool // a create of the initial fill of directory 0
	dir, dir2   uint16
	name, name2 int32
	count       int32
}

// metaArm describes one fresh metadata server of a metadata workload.
type metaArm struct {
	label  string
	layout mdfs.Layout
	htree  bool
	dirs   int
	sync   bool // SyncWrites: commit the journal after every operation
}

func (a metaArm) config() mds.Config {
	cfg := mds.DefaultConfig(a.layout)
	cfg.FS.SyncWrites = a.sync
	cfg.FS.Htree = a.htree
	return cfg
}

// metaTarget is the part of the metadata API the op list drives. Both
// *mds.Server (the workloads) and *mdfs.FS (the layer replay and the image
// build) provide it.
type metaTarget interface {
	Root() inode.Ino
	Mkdir(parent inode.Ino, name string) (inode.Ino, error)
	Create(parent inode.Ino, name string) (inode.Ino, error)
	Lookup(parent inode.Ino, name string) (inode.Ino, error)
	Utime(ino inode.Ino) error
	ReaddirPlus(parent inode.Ino) ([]inode.Inode, error)
	Unlink(parent inode.Ino, name string) error
	Rename(srcParent inode.Ino, name string, dstParent inode.Ino, newName string) (inode.Ino, error)
	Sync() error
}

// metaWorkload is a generated metadata workload.
type metaWorkload struct {
	arms  []metaArm
	names []string
	ops   []metaOp
	calls int64
	// fillPerDir is the size of directory 0's initial fill, for the
	// create-growth ratio.
	fillPerDir int
	// verifyExtra, when set, runs on the verifying iteration after the op
	// list: shape checks that need more than the op list provides.
	verifyExtra func(it *iter)
}

func (w *metaWorkload) opsPerIter() int64 { return w.calls }

func (w *metaWorkload) add(op metaOp) {
	w.ops = append(w.ops, op)
	switch {
	case op.kind >= mMarks:
	case op.kind == mTouch:
		w.calls += 2
	default:
		w.calls++
	}
}

func (w *metaWorkload) opHash() uint64 {
	h := newHasher()
	for _, n := range w.names {
		h.str(n)
	}
	for _, op := range w.ops {
		h.u64(uint64(op.kind)<<32 | uint64(op.dir)<<16 | uint64(op.dir2))
		h.u64(uint64(uint32(op.name))<<32 | uint64(uint32(op.name2)))
		h.u64(uint64(op.count))
	}
	return h.sum
}

// growth accumulates the host time of the first and the last tenth of the
// creates that fill directory 0: their ratio shows how create cost grows
// with directory size.
type growth struct {
	earlyNs, lateNs int64
	early, late     int64
}

func (g *growth) ratio() float64 {
	if g.early == 0 || g.late == 0 {
		return 0
	}
	return ratio(float64(g.lateNs)/float64(g.late), float64(g.earlyNs)/float64(g.early))
}

// iterate applies the op list to fresh metadata servers.
func (w *metaWorkload) iterate(it *iter) {
	w.run(it, spMdsNew, nil, func(a metaArm) (metaTarget, *mdfs.FS, *telemetry.Tracer, error) {
		srv, err := mds.New(a.config())
		if err != nil {
			return nil, nil, nil, err
		}
		reg, tr := it.observers()
		if reg != nil {
			srv.Instrument(reg, telemetry.Labels{"layer": "mds", "arm": a.label})
			srv.SetTracer(tr)
		}
		return srv, srv.FS(), tr, nil
	})
	if it.verify && w.verifyExtra != nil {
		w.verifyExtra(it)
	}
}

// replay applies the same op list straight to the metadata file system,
// the layer below the server: what a call costs there is mdfs's share of
// the server's. g, when set, receives directory 0's create-growth times.
func (w *metaWorkload) replay(it *iter, g *growth) {
	w.run(it, spMdfsNew, g, func(a metaArm) (metaTarget, *mdfs.FS, *telemetry.Tracer, error) {
		fs, err := mdfs.New(a.config().FS)
		return fs, fs, nil, err
	})
}

// run is the op-list interpreter. base is spMdsNew or spMdfsNew: the span
// names of the two layers are declared in the same order.
func (w *metaWorkload) run(it *iter, base spanName, g *growth, build func(metaArm) (metaTarget, *mdfs.FS, *telemetry.Tracer, error)) {
	name := func(n spanName) spanName { return base + n - spMdsNew }
	var (
		arm       metaArm
		tgt       metaTarget
		fs        *mdfs.FS
		tr        *telemetry.Tracer
		dirs      []inode.Ino
		inst      = noSpan
		phaseFrom disk.Stats
		filled    int
	)
	for i := range w.ops {
		op := &w.ops[i]
		switch op.kind {
		case mArm:
			arm = w.arms[op.dir]
			inst = it.instance()
			sp := it.begin(name(spMdsNew))
			var err error
			tgt, fs, tr, err = build(arm)
			it.end(sp, err)
			if err != nil {
				return
			}
			dirs = make([]inode.Ino, arm.dirs)
			filled = 0
		case mMkdir:
			sp := it.begin(name(spMdsMkdir))
			ino, err := tgt.Mkdir(tgt.Root(), w.names[op.name])
			it.end(sp, err)
			dirs[op.dir] = ino
		case mCreate:
			sp := it.begin(name(spMdsCreate))
			_, err := tgt.Create(dirs[op.dir], w.names[op.name])
			it.end(sp, err)
			if g != nil && op.fill && sp != noSpan {
				s := it.rec.spans[sp]
				tenth := w.fillPerDir / 10
				switch {
				case filled < tenth:
					g.early++
					g.earlyNs += s.End - s.Start
				case filled >= w.fillPerDir-tenth:
					g.late++
					g.lateNs += s.End - s.Start
				}
				filled++
			}
		case mTouch:
			sp := it.begin(name(spMdsLookup))
			ino, err := tgt.Lookup(dirs[op.dir], w.names[op.name])
			it.end(sp, err)
			if err != nil {
				it.calls++ // the utime that could not be issued
				continue
			}
			sp = it.begin(name(spMdsUtime))
			err = tgt.Utime(ino)
			it.end(sp, err)
		case mReaddirPlus:
			sp := it.begin(name(spMdsReaddirPlus))
			recs, err := tgt.ReaddirPlus(dirs[op.dir])
			if err == nil && len(recs) != int(op.count) {
				err = fmt.Errorf("%s: readdirplus of directory %d returned %d records, want %d", arm.label, op.dir, len(recs), op.count)
			}
			it.end(sp, err)
		case mUnlink:
			sp := it.begin(name(spMdsUnlink))
			err := tgt.Unlink(dirs[op.dir], w.names[op.name])
			it.end(sp, err)
		case mRename:
			sp := it.begin(name(spMdsRename))
			_, err := tgt.Rename(dirs[op.dir], w.names[op.name], dirs[op.dir2], w.names[op.name2])
			it.end(sp, err)
		case mSync:
			sp := it.begin(name(spMdsSync))
			err := tgt.Sync()
			it.end(sp, err)
			fs.Store().DropCaches()
			phaseFrom = fs.Store().Disk().Stats()

		case markReaddir:
			if it.verify {
				delta := fs.Store().Disk().Stats().Sub(phaseFrom)
				it.shape(arm.label+"/readdir_requests", float64(delta.Requests))
			}
		case markArmEnd:
			rep := fs.Fsck()
			st := fs.Store().Disk().Stats()
			it.sim.add(simCounts{Ns: st.BusyNs, Positionings: st.Positionings, DiskRequests: st.Requests, Extents: rep.ReachableBlocks})
			it.check(rep.Clean(), "%s: fsck: %v", arm.label, rep.Problems)
			it.observed(tr)
			it.endInstance(inst)
		}
	}
}

// metaGen builds a metadata op list: it tracks which names are live in
// which directory so that every generated op succeeds.
type metaGen struct {
	w      *metaWorkload
	rng    *rng
	serial int
	live   [][]int32 // per directory, the live names
}

// clientsPerDir is the number of clients working in each directory; the
// seed decides how their request streams interleave.
const clientsPerDir = 2

func (g *metaGen) newName() int32 {
	g.serial++
	g.w.names = append(g.w.names, fmt.Sprintf("f%07d-%04x", g.serial, g.rng.next()&0xffff))
	return int32(len(g.w.names) - 1)
}

// interleave emits the clients' queued ops in a seeded arrival order.
func (g *metaGen) interleave(queues [][]metaOp) {
	counts := make([]int, len(queues))
	for c, q := range queues {
		counts[c] = len(q)
	}
	g.rng.interleave(counts, func(c, i int) { g.w.add(queues[c][i]) })
}

// perName queues one op per live name, split over each directory's
// clients, and emits them interleaved.
func (g *metaGen) perName(kind metaKind) {
	queues := make([][]metaOp, len(g.live)*clientsPerDir)
	for d, names := range g.live {
		for i, n := range names {
			c := d*clientsPerDir + i%clientsPerDir
			queues[c] = append(queues[c], metaOp{kind: kind, dir: uint16(d), name: n})
		}
	}
	g.interleave(queues)
}

// arm starts a fresh server with its directories.
func (g *metaGen) arm(a metaArm) {
	g.w.arms = append(g.w.arms, a)
	g.w.add(metaOp{kind: mArm, dir: uint16(len(g.w.arms) - 1)})
	g.live = make([][]int32, a.dirs)
	for d := 0; d < a.dirs; d++ {
		g.w.names = append(g.w.names, fmt.Sprintf("client%02d-%04x", d, g.rng.next()&0xffff))
		g.w.add(metaOp{kind: mMkdir, dir: uint16(d), name: int32(len(g.w.names) - 1)})
	}
}

// fill creates perDir files in every directory.
func (g *metaGen) fill(perDir int) {
	queues := make([][]metaOp, len(g.live)*clientsPerDir)
	for d := range g.live {
		for i := 0; i < perDir; i++ {
			n := g.newName()
			g.live[d] = append(g.live[d], n)
			c := d*clientsPerDir + i%clientsPerDir
			queues[c] = append(queues[c], metaOp{kind: mCreate, fill: d == 0, dir: uint16(d), name: n})
		}
	}
	g.w.add(metaOp{kind: mSync})
	g.interleave(queues)
}

// readdirStat lists every directory with attributes (ls -l).
func (g *metaGen) readdirStat() {
	g.w.add(metaOp{kind: mSync})
	for d, names := range g.live {
		g.w.add(metaOp{kind: mReaddirPlus, dir: uint16(d), count: int32(len(names))})
	}
	g.w.add(metaOp{kind: markReaddir})
}

// unlinkAll removes every live file.
func (g *metaGen) unlinkAll() {
	g.w.add(metaOp{kind: mSync})
	g.perName(mUnlink)
	for d := range g.live {
		g.live[d] = g.live[d][:0]
	}
}

// churn unlinks every nth live name of each directory, from a seeded
// offset, and creates as many new ones: the aging that forces the embedded
// layout to spill and to keep its fragmentation degree up to date.
func (g *metaGen) churn(nth int) {
	g.w.add(metaOp{kind: mSync})
	queues := make([][]metaOp, len(g.live))
	for d, names := range g.live {
		kept := names[:0:0]
		var fresh []int32
		off := g.rng.intn(nth)
		whole := len(names) / nth * nth // so that no offset picks one more
		for i, n := range names {
			if i < whole && i%nth == off {
				queues[d] = append(queues[d], metaOp{kind: mUnlink, dir: uint16(d), name: n})
				fresh = append(fresh, g.newName())
			} else {
				kept = append(kept, n)
			}
		}
		for _, n := range fresh {
			queues[d] = append(queues[d], metaOp{kind: mCreate, dir: uint16(d), name: n})
		}
		g.live[d] = append(kept, fresh...)
	}
	g.interleave(queues)
}

// renames moves a seeded tenth of each directory's files into the next
// directory under new names.
func (g *metaGen) renames() {
	g.w.add(metaOp{kind: mSync})
	dirs := len(g.live)
	queues := make([][]metaOp, dirs)
	arrivals := make([][]int32, dirs)
	for d, names := range g.live {
		kept := names[:0:0]
		off := g.rng.intn(10)
		whole := len(names) / 10 * 10
		for i, n := range names {
			if i < whole && i%10 == off {
				to := (d + 1) % dirs
				n2 := g.newName()
				queues[d] = append(queues[d], metaOp{kind: mRename, dir: uint16(d), dir2: uint16(to), name: n, name2: n2})
				arrivals[to] = append(arrivals[to], n2)
			} else {
				kept = append(kept, n)
			}
		}
		g.live[d] = kept
	}
	for d := range g.live {
		g.live[d] = append(g.live[d], arrivals[d]...)
	}
	g.interleave(queues)
}

// endArm closes the arm.
func (g *metaGen) endArm() {
	g.w.add(metaOp{kind: mSync})
	g.w.add(metaOp{kind: markArmEnd})
}

// metarates queues the four Metarates phases on the current arm.
func (g *metaGen) metarates(perDir int) {
	g.fill(perDir)
	g.w.add(metaOp{kind: mSync})
	g.perName(mTouch)
	g.readdirStat()
	g.unlinkAll()
}

const bigdirFiles = 5000 // the paper's directory size

// newMetaBigdir generates meta_bigdir: the Metarates phases on the normal
// layout with synchronous writes, once with linear directories (2 x 5,000
// files) and once with the Htree index (1 x 5,000).
func newMetaBigdir(seed uint64, scale float64) *metaWorkload {
	perDir := int(scaled(bigdirFiles, scale, 20))
	w := &metaWorkload{fillPerDir: perDir}
	g := &metaGen{w: w, rng: newRNG(seed)}
	for _, a := range []metaArm{
		{label: "normal", layout: mdfs.LayoutNormal, dirs: 2, sync: true},
		{label: "htree", layout: mdfs.LayoutNormal, htree: true, dirs: 1, sync: true},
	} {
		g.arm(a)
		g.metarates(perDir)
		g.endArm()
	}

	// Figure 8's shape needs the embedded layout beside the normal one:
	// the verifying iteration runs the same phases on it, outside the op
	// list, and compares the readdir-stat disk requests.
	side := &metaWorkload{fillPerDir: perDir}
	sg := &metaGen{w: side, rng: newRNG(seed)}
	sg.arm(metaArm{label: "embedded", layout: mdfs.LayoutEmbedded, dirs: 2, sync: true})
	sg.metarates(perDir)
	sg.endArm()
	w.verifyExtra = func(it *iter) {
		sit := &iter{verify: true}
		side.iterate(sit)
		it.check(sit.failed == 0 && sit.bad == 0, "shape arm: %v", sit.problems)
		emb, norm := sit.shapes["embedded/readdir_requests"], it.shapes["normal/readdir_requests"]
		it.check(emb < norm, "shape: embedded readdir-stat took %.0f disk requests, not fewer than normal's %.0f", emb, norm)
	}
	return w
}

const (
	agedDirs  = 6
	agedFiles = 5000
)

// newMetaAged generates meta_aged: on the embedded layout, create, utime
// and readdir-stat over 6 x 5,000 files, two churn rounds (every third name
// replaced), cross-directory
// renames, a final readdir-stat, and the removal of everything.
func newMetaAged(seed uint64, scale float64) *metaWorkload {
	perDir := int(scaled(agedFiles, scale, 30))
	w := &metaWorkload{fillPerDir: perDir}
	g := &metaGen{w: w, rng: newRNG(seed)}
	g.arm(metaArm{label: "embedded", layout: mdfs.LayoutEmbedded, dirs: agedDirs, sync: true})
	g.fill(perDir)
	g.w.add(metaOp{kind: mSync})
	g.perName(mTouch)
	g.readdirStat()
	g.churn(3)
	g.churn(3)
	g.renames()
	g.readdirStat()
	g.unlinkAll()
	g.endArm()
	return w
}
