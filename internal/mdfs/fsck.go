package mdfs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"redbud/internal/alloc"
	"redbud/internal/inode"
	"redbud/internal/telemetry"
)

// Fsck is one walk over the on-disk state. It reads through the decoders
// Remount uses (decode.go) and a charge-free StoreView — no LRU traffic,
// no stats, no simulated-disk charge — and writes each finding straight
// into the report, in this order:
//
//  1. directories, depth first from the root record: each one's own
//     mapping and spill chain, then its content, claiming every block it
//     owns and linking every child directory it names;
//  2. block groups: allocated data-area blocks nothing claimed (leaks)
//     and, in the normal layout, inode-bitmap bits no dirent names
//     (orphans) — reachability is complete by now;
//  3. the embedded layout's directory table: live entries no reachable
//     directory carries the id of (orphans);
//  4. the claims: blocks with two owners or reachable but not allocated,
//     directory ids carried twice, directories linked twice;
//  5. a final sort of the problem and advisory lists, so the report is a
//     function of the on-disk state, not of the order the walk took.
//
// Fsck must only be called between operations (the store quiescent), the
// same contract Remount has.

// FsckOptions tunes a check. The zero value is an untelemetered check —
// exactly what Fsck() runs.
type FsckOptions struct {
	// Workers is ignored: the check is one walk. The field stays only
	// until bench/, which sets it, can be edited.
	Workers int
	// Metrics, when set, receives the layer=fsck counters (tasks, blocks
	// scanned, claims, findings), all deterministic.
	Metrics *telemetry.Registry
	// Trace, when set, records the fsck span with two children: scan
	// (steps 1–3) and resolve (steps 4–5).
	Trace *telemetry.Tracer
}

// FsckReport is the result of a consistency check.
type FsckReport struct {
	// Dirs and Files count the reachable namespace.
	Dirs  int
	Files int
	// ReachableBlocks counts metadata blocks owned by reachable objects
	// (directory content/entries, spill blocks).
	ReachableBlocks int64
	// Problems lists every inconsistency found (sorted), empty for a
	// clean file system.
	Problems []string
	// Advisories are non-fatal drifts in heuristic bookkeeping (the
	// fragmentation-degree numerator is persisted lazily by design).
	Advisories []string
}

// Clean reports whether the check found no problems.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

// problemf appends a formatted finding.
func (r *FsckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck walks the on-disk state from the superblock — independently of the
// in-memory namespace — and verifies the structural invariants:
//
//   - the superblock is valid and the root record is a directory;
//   - every reachable inode record parses and its Ino matches its
//     location (embedded: directory identification and slot);
//   - no two objects claim the same metadata block (content, entry, or
//     spill), and no directory record is referenced twice (a dirent
//     pointing at an ancestor or an already-linked directory is a cycle
//     or cross-link, reported instead of recursed into);
//   - every reachable metadata block is marked allocated in the space
//     allocator, and — the reverse pass — every dynamically allocated
//     block is reachable (otherwise it leaked);
//   - embedded: every directory's table entry resolves back to it, every
//     live table entry belongs to a reachable directory, the record's
//     Size stays within [files, files+subdirs], and the stored
//     fragmentation-degree numerator matches the sum of its files'
//     mapping-unit counts (advisory);
//   - normal: every reachable inode's slot is set in the inode bitmap,
//     and every set bit is referenced by some dirent (else orphaned).
func (fs *FS) Fsck() *FsckReport { return fs.FsckWith(FsckOptions{}) }

// Span layer, span names and attribute keys of a traced check, interned once
// per process.
var (
	layerFsck    = telemetry.Intern("fsck")
	spanFsck     = telemetry.Intern("fsck")
	spanScan     = telemetry.Intern("scan")
	spanResolve  = telemetry.Intern("resolve")
	attrTasks    = telemetry.Intern("tasks")
	attrBlocks   = telemetry.Intern("blocks")
	attrDirs     = telemetry.Intern("dirs")
	attrProblems = telemetry.Intern("problems")
)

// FsckWith runs the check with explicit telemetry options.
func (fs *FS) FsckWith(opt FsckOptions) *FsckReport {
	r := &FsckReport{}
	view := fs.store.View()
	sr, root, err := fs.readSuper(view)
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
		return r
	}
	w := &fsckWalker{
		fs: fs, view: view, r: r, root: sr.key,
		owned: newOwners[int64](), links: newOwners[dirLink](), dirIDs: newOwners[uint32](),
	}
	if fs.cfg.Layout == LayoutNormal {
		w.refs = make([][]uint64, len(fs.ibitmap))
		for g := range w.refs {
			w.refs[g] = make([]uint64, len(fs.ibitmap[g]))
		}
		w.refs[0][0] |= 1 // the reserved slot, never a dirent target
		if rootSlot := int64(sr.ino); fs.geo.hasSlot(rootSlot) {
			w.ref(rootSlot)
		}
	}

	span := opt.Trace.Begin(layerFsck, spanFsck, 0)
	scan := opt.Trace.Begin(layerFsck, spanScan, span.ID())
	w.walkDir(sr.key, root, sr.ino)
	for g := int64(0); g < fs.geo.Groups; g++ {
		w.checkGroup(g)
	}
	if fs.cfg.Layout == LayoutEmbedded {
		w.checkTable()
	}
	scan.AnnotateInt(attrTasks, w.tasks)
	scan.AnnotateInt(attrBlocks, w.blocks)
	scan.End()

	resolve := opt.Trace.Begin(layerFsck, spanResolve, span.ID())
	w.checkClaims()
	sort.Strings(r.Problems)
	sort.Strings(r.Advisories)
	resolve.End()
	span.AnnotateInt(attrDirs, int64(r.Dirs))
	span.AnnotateInt(attrProblems, int64(len(r.Problems)))
	span.End()

	if m := opt.Metrics; m != nil {
		labels := telemetry.Labels{"layer": "fsck"}
		m.Counter("fsck_runs", labels).Inc()
		m.Counter("fsck_scan_tasks", labels).Add(w.tasks)
		m.Counter("fsck_blocks_scanned", labels).Add(w.blocks)
		m.Counter("fsck_claims", labels).Add(w.claims)
		m.Counter("fsck_problems", labels).Add(int64(len(r.Problems)))
		m.Counter("fsck_advisories", labels).Add(int64(len(r.Advisories)))
		h := m.Histogram("fsck_task_blocks", labels)
		for _, n := range w.dirBlocks {
			h.Observe(n)
		}
	}
	return r
}

// owners maps each claimed key to its claimants: the lexicographically
// smallest one, and — for a key claimed more than once — all of them.
type owners[K comparable] struct {
	min  map[K]string
	dups map[K][]string
}

func newOwners[K comparable]() owners[K] {
	return owners[K]{min: make(map[K]string), dups: make(map[K][]string)}
}

// add records a claim on k and reports whether it is the key's first.
func (o *owners[K]) add(k K, who string) bool {
	cur, ok := o.min[k]
	switch {
	case !ok:
		o.min[k] = who
		return true
	case o.dups[k] == nil:
		o.dups[k] = []string{cur, who}
	default:
		o.dups[k] = append(o.dups[k], who)
	}
	if who < cur {
		o.min[k] = who
	}
	return false
}

// pairs calls f for every key claimed more than once, once per claimant
// other than the smallest, paired with the smallest.
func (o *owners[K]) pairs(f func(k K, smallest, other string)) {
	for k, all := range o.dups {
		smallest := o.min[k]
		skip := slices.Index(all, smallest)
		for i, who := range all {
			if i != skip {
				f(k, smallest, who)
			}
		}
	}
}

// dirLink keys the links into one directory: the location of its record,
// and its name for the report.
type dirLink struct {
	rec  recKey
	desc string
}

// fsckWalker is the state of one check. Directories are deduplicated on
// the location of their record, first link wins, so a cyclic or
// cross-linked dirent graph walks every directory exactly once and always
// terminates.
type fsckWalker struct {
	fs   *FS
	view *StoreView
	r    *FsckReport
	root recKey

	owned  owners[int64]   // metadata block → the objects claiming it
	links  owners[dirLink] // directory record → the directories naming it
	dirIDs owners[uint32]  // embedded directory id → the directories carrying it
	refs   [][]uint64      // normal layout: slots some dirent names, shaped like ibitmap

	tasks, blocks, claims int64
	dirBlocks             []int64 // content blocks decoded per directory

	// rec and chain are the walkers' scratch: every content record
	// decodes into rec, without its name, and its spill chain into chain.
	rec   inode.Inode
	chain []int64
}

// claim records that what owns block blk.
func (w *fsckWalker) claim(blk int64, what string) {
	w.claims++
	w.owned.add(blk, what)
}

// claimSpill claims the spill chain of the file record named name and
// checks that the mapping is whole; the name is formatted only for a
// record that has a chain or a finding.
func (w *fsckWalker) claimSpill(rec *inode.Inode, name []byte) {
	w.chain = w.fs.spillChain(w.view, rec, w.chain[:0])
	if have := w.mappingUnits(rec, w.chain); have < int(rec.ExtentCount) {
		w.r.problemf("file %q mapping holds %d of its %d units (spill chain cut short)", name, have, rec.ExtentCount)
	}
	if len(w.chain) == 0 {
		return
	}
	what := fmt.Sprintf("file %q spill", name)
	for _, blk := range w.chain {
		w.claim(blk, what)
	}
}

// mappingUnits counts the mapping units the record's inline head and its
// in-device spill blocks hold.
func (w *fsckWalker) mappingUnits(rec *inode.Inode, chain []int64) int {
	n := len(rec.Inline)
	for _, blk := range chain {
		if w.fs.inDevice(blk) {
			n += min(int(binary.LittleEndian.Uint32(w.view.Read(blk))), w.fs.extentsPerSpill())
		}
	}
	return n
}

// ref marks a normal-layout inode slot as named by a dirent.
func (w *fsckWalker) ref(slot int64) {
	idx := slot % w.fs.geo.InodesPerGroup
	w.refs[slot/w.fs.geo.InodesPerGroup][idx/64] |= 1 << uint(idx%64)
}

// link records that the directory from names the directory record at
// child, whose fields are in w.rec and whose name is name, and walks the
// child if no link reached it before. The record is copied out of w.rec
// first: the child's walk decodes its own content there. A link to the
// root is a cycle by itself; a second link to any other directory is
// reported by checkClaims.
func (w *fsckWalker) link(child recKey, name string, ino inode.Ino, from string) {
	l := dirLink{rec: child, desc: fmt.Sprintf("dir %q", name)}
	if child == w.root {
		w.r.problemf("%s references the root directory %s (directory cycle)", from, l.desc)
	} else if w.links.add(l, from) {
		rec := w.rec
		rec.Name = name
		rec.Inline = slices.Clone(w.rec.Inline)
		w.walkDir(child, &rec, ino)
	}
}

// walkDir checks one directory: its own mapping and spill chain, then the
// layout-specific content walk.
func (w *fsckWalker) walkDir(key recKey, rec *inode.Inode, ino inode.Ino) {
	fs := w.fs
	w.tasks++
	w.r.Dirs++
	name := rec.Name
	if name == "" {
		name = "/"
	}
	desc := fmt.Sprintf("dir %q", name)
	if fs.cfg.Layout == LayoutEmbedded && key == w.root {
		// The embedded root record lives in a standalone data block (every
		// other record is inside its parent's content).
		w.claim(key.blk, "root record")
	}
	chain := fs.spillChain(w.view, rec, nil)
	for _, spill := range chain {
		w.claim(spill, desc+" mapping spill")
	}
	if have := w.mappingUnits(rec, chain); have < int(rec.ExtentCount) {
		w.r.problemf("%s mapping holds %d of its %d units (spill chain cut short)", desc, have, rec.ExtentCount)
	}
	runs, outside := fs.dirRuns(w.view, rec)
	for _, run := range outside {
		w.r.problemf("%s content run [%d,+%d) outside device", desc, run.Start, run.Count)
	}
	content := desc + " content"
	for _, run := range runs {
		for b := run.Start; b < run.End(); b++ {
			w.claim(b, content)
		}
	}
	var blocks int64
	if fs.cfg.Layout == LayoutEmbedded {
		blocks = w.embeddedDir(desc, rec, ino, runs)
	} else {
		blocks = w.normalDir(desc, ino, runs)
	}
	w.blocks += blocks
	w.dirBlocks = append(w.dirBlocks, blocks)
}

// embeddedDir checks an embedded directory's table entry and walks its
// content records, returning the blocks it decoded.
func (w *fsckWalker) embeddedDir(desc string, dirRec *inode.Inode, dirIno inode.Ino, runs []alloc.Range) (blocks int64) {
	fs := w.fs
	id := dirRec.DirID
	if id == 0 {
		w.r.problemf("embedded dir %v has no directory identification", dirIno)
		return 0
	}
	w.dirIDs.add(id, desc)
	switch _, self, err := fs.tableEntry(w.view, id); {
	case err != nil:
		w.r.problemf("dir table entry %d: %v", id, err)
	case self == 0:
		w.r.problemf("dir table entry %d: %v: directory id %d", id, ErrNotExist, id)
	case self != dirIno:
		w.r.problemf("dir table entry %d points at %v, record says %v", id, self, dirIno)
	}
	per := fs.geo.InodesPerBlock
	var slot uint32
	var files, subdirs, degreeSum int64
	for _, run := range runs {
		for b := run.Start; b < run.End(); b++ {
			buf := w.view.Read(b)
			blocks++
			for i := int64(0); i < per; i++ {
				cur := slot
				slot++
				recBuf := buf[i*recordSize : (i+1)*recordSize]
				rec := &w.rec
				if err := rec.UnmarshalFields(recBuf); err != nil {
					w.r.problemf("dir %d slot %d: %v", id, cur, err)
					continue
				}
				if rec.Mode == inode.ModeNone || rec.Nlink == 0 {
					continue
				}
				if want := inode.MakeIno(id, cur); rec.Ino != want {
					w.r.problemf("dir %d slot %d: record ino %v, want %v", id, cur, rec.Ino, want)
				}
				if rec.IsDir() {
					subdirs++
					w.link(recKey{b, int(i * recordSize)}, string(inode.RecordName(recBuf)), rec.Ino, desc)
					continue
				}
				files++
				degreeSum += int64(rec.ExtentCount)
				w.claimSpill(rec, inode.RecordName(recBuf))
			}
		}
	}
	w.r.Files += int(files)
	if int64(dirRec.Aux) != degreeSum {
		// The numerator is maintained in memory and persisted on the
		// next structural touch, so bounded drift is expected.
		w.r.Advisories = append(w.r.Advisories, fmt.Sprintf(
			"dir %d: fragmentation-degree numerator %d, recomputed %d (lazily persisted)",
			id, dirRec.Aux, degreeSum))
	}
	// Size counts files plus subdirectories in embTouchDir, so the stored
	// value must stay within [files, files+subdirs]: below means entries
	// appeared that the record never counted, above means a stale
	// over-count survived (e.g. a torn commit that lost deletions).
	if dirRec.Size < files {
		w.r.problemf("dir %d: file count %d below recomputed %d", id, dirRec.Size, files)
	}
	if dirRec.Size > files+subdirs {
		w.r.problemf("dir %d: file count %d above recomputed %d files + %d subdirectories (stale over-count)",
			id, dirRec.Size, files, subdirs)
	}
	return blocks
}

// normalDir walks a traditional directory's entry blocks and the inode
// each entry names, returning the blocks it decoded.
func (w *fsckWalker) normalDir(desc string, dirIno inode.Ino, runs []alloc.Range) (blocks int64) {
	fs := w.fs
	per := fs.direntsPerBlock()
	var files int64
	for _, run := range runs {
		for b := run.Start; b < run.End(); b++ {
			buf := w.view.Read(b)
			blocks++
			for i := 0; i < per; i++ {
				ino, name, err := dirent(buf, i)
				if err != nil {
					w.r.problemf("dir %v: %v", dirIno, err)
					continue
				}
				if ino == 0 {
					continue
				}
				slot := int64(ino)
				if !fs.geo.hasSlot(slot) {
					w.r.problemf("dirent %q: inode %d outside inode tables", name, slot)
					continue
				}
				w.ref(slot)
				g, idx := slot/fs.geo.InodesPerGroup, slot%fs.geo.InodesPerGroup
				if fs.ibitmap[g][idx/64]&(1<<uint(idx%64)) == 0 {
					w.r.problemf("dirent %q: inode %d not set in inode bitmap", name, slot)
				}
				blk, off := fs.geo.slotLocation(slot)
				recBuf, err := fs.recordAt(w.view, blk, off)
				rec := &w.rec
				if err == nil {
					err = rec.UnmarshalFields(recBuf)
				}
				if err != nil {
					w.r.problemf("inode %d: %v", slot, err)
					continue
				}
				if rec.Mode == inode.ModeNone {
					w.r.problemf("dirent %q points at cleared inode %d", name, slot)
					continue
				}
				if rec.IsDir() {
					w.link(recKey{blk, off}, string(inode.RecordName(recBuf)), ino, desc)
					continue
				}
				files++
				w.claimSpill(rec, name)
			}
		}
	}
	w.r.Files += int(files)
	return blocks
}

// checkGroup reports the group's allocated data-area blocks that nothing
// reachable claims, merged into runs — the fixed metadata regions are
// format-time reservations and never leak — and, in the normal layout,
// its inode-bitmap bits that no dirent names.
func (w *fsckWalker) checkGroup(g int64) {
	fs := w.fs
	w.tasks++
	var from, to int64 // the leaked run being merged, [from, to)
	leak := func() {
		if to-from == 1 {
			w.r.problemf("block %d allocated but unreachable (leaked)", from)
		} else if to-from > 1 {
			w.r.problemf("blocks [%d,%d) allocated but unreachable (leaked)", from, to)
		}
	}
	for _, run := range fs.alloc.AllocatedRunsIn(fs.geo.dataStart(g), fs.geo.groupEnd(g)) {
		for b := run.Start; b < run.End(); b++ {
			if _, ok := w.owned.min[b]; ok {
				continue
			}
			if b != to {
				leak()
				from = b
			}
			to = b + 1
		}
	}
	leak()
	if fs.cfg.Layout != LayoutNormal {
		return
	}
	for i, word := range fs.ibitmap[g] {
		for orphans := word &^ w.refs[g][i]; orphans != 0; orphans &= orphans - 1 {
			if idx := int64(i)*64 + int64(bits.TrailingZeros64(orphans)); idx < fs.geo.InodesPerGroup {
				w.r.problemf("inode %d set in inode bitmap but referenced by no dirent (orphan)",
					g*fs.geo.InodesPerGroup+idx)
			}
		}
	}
}

// checkTable reports the live entries of the global directory table
// (embedded layout) whose id no reachable directory carries.
func (w *fsckWalker) checkTable() {
	fs := w.fs
	w.tasks++
	w.blocks += fs.geo.TableBlocks
	n := fs.geo.TableBlocks * (fs.cfg.BlockSize / tableEntrySize)
	for id := int64(0); id < n; id++ {
		_, self, _ := fs.tableEntry(w.view, uint32(id))
		if _, reachable := w.dirIDs.min[uint32(id)]; self != 0 && !reachable {
			w.r.problemf("directory table entry %d (self %v) references no reachable directory (orphan)", id, self)
		}
	}
}

// checkClaims derives the findings that need every claim: blocks with two
// owners or reachable but not allocated, directory ids carried by two
// directories, and directories linked twice — a dirent pointing at an
// ancestor or at an already-linked directory, the cycles and cross-links
// the walk refused to enter again.
func (w *fsckWalker) checkClaims() {
	r := w.r
	r.ReachableBlocks = int64(len(w.owned.min))
	for blk, what := range w.owned.min {
		if !w.fs.alloc.Allocated(alloc.Range{Start: blk, Count: 1}) {
			r.problemf("block %d (%s) reachable but not allocated", blk, what)
		}
	}
	w.owned.pairs(func(blk int64, smallest, other string) {
		r.problemf("block %d claimed by both %s and %s", blk, smallest, other)
	})
	w.dirIDs.pairs(func(id uint32, smallest, other string) {
		r.problemf("directory id %d used by both %s and %s", id, smallest, other)
	})
	w.links.pairs(func(l dirLink, smallest, other string) {
		r.problemf("%s re-entered: referenced by both %s and %s (directory cycle or cross-link)",
			l.desc, smallest, other)
	})
}
