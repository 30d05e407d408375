package mdfs

import (
	"encoding/binary"
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/extent"
	"redbud/internal/inode"
)

// The fsck scan stage. Every task reads through the charge-free StoreView
// (plus the read-only in-memory allocator and inode bitmaps), records its
// findings locally, and appends its result; the resolution stage relies on
// nothing about the order they arrive in.

// recKey addresses an inode record by its physical location. It is the
// identity the walker deduplicates directories on: two dirents reaching
// the same record location are one directory referenced twice, however
// the references are spelled.
type recKey struct {
	blk int64
	off int
}

func (k recKey) less(o recKey) bool {
	if k.blk != o.blk {
		return k.blk < o.blk
	}
	return k.off < o.off
}

// fsckClaim asserts ownership of one metadata block.
type fsckClaim struct {
	blk  int64
	what string
}

// fsckEdge is one parent→child directory reference.
type fsckEdge struct {
	child     recKey
	childDesc string
	from      string
}

// fsckDirResult is one directory-scan task's output.
type fsckDirResult struct {
	key        recKey
	desc       string
	dirID      uint32
	files      int64
	subdirs    int64
	blocks     int64 // blocks this task decoded
	problems   []string
	advisories []string
	claims     []fsckClaim
	edges      []fsckEdge
	inodeRefs  []int64 // normal layout: inode slots referenced by dirents
}

func (res *fsckDirResult) problemf(format string, args ...interface{}) {
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

func (res *fsckDirResult) claim(blk int64, what string) {
	res.claims = append(res.claims, fsckClaim{blk: blk, what: what})
}

// fsckGroupResult is one block-group task's output: the allocator and
// inode-bitmap occupancy the resolution stage diffs against reachability.
type fsckGroupResult struct {
	group     int64
	allocated []alloc.Range // allocated runs inside the group's data area
	setSlots  []int64       // normal layout: inode-bitmap bits set
}

// fsckTableEntry is one live global-directory-table entry.
type fsckTableEntry struct {
	dirID  uint32
	parent inode.Ino
	self   inode.Ino
}

// fsckDirTask is one directory waiting on the work list.
type fsckDirTask struct {
	key recKey
	rec *inode.Inode
	ino inode.Ino
}

// fsckWalker is the scan stage: a work list of dynamically discovered
// directories, with a first-wins visited set keyed by record location so a
// cyclic or cross-linked dirent graph lists every directory exactly once
// and always terminates.
type fsckWalker struct {
	fs      *FS
	view    *StoreView
	rootKey recKey
	rootIno inode.Ino

	tasks   int64
	blocks  int64
	claimed int64 // set by the resolution stage

	visited map[recKey]bool
	pending []fsckDirTask
	dirs    []*fsckDirResult
	groups  []*fsckGroupResult
	table   []fsckTableEntry
}

// scan walks the namespace from the root record, then snapshots every
// block group and, in the embedded layout, the global directory table.
func (w *fsckWalker) scan(root *inode.Inode) {
	w.visit(w.rootKey, root, w.rootIno)
	for i := 0; i < len(w.pending); i++ { // scanDir appends what it discovers
		t := w.pending[i]
		w.scanDir(t.key, t.rec, t.ino)
	}
	for g := int64(0); g < w.fs.geo.Groups; g++ {
		w.scanGroup(g)
	}
	if w.fs.cfg.Layout == LayoutEmbedded {
		w.scanTable()
	}
}

// visit lists a directory for scanning unless its record was already
// claimed by another path — the re-entry case the resolution stage reports
// from the edge multiset instead of recursing into.
func (w *fsckWalker) visit(key recKey, rec *inode.Inode, ino inode.Ino) {
	if w.visited[key] {
		return
	}
	w.visited[key] = true
	w.pending = append(w.pending, fsckDirTask{key, rec, ino})
}

// scanDir checks one directory: its own mapping and spill chain, then the
// layout-specific content walk.
func (w *fsckWalker) scanDir(key recKey, rec *inode.Inode, ino inode.Ino) {
	w.tasks++
	fs := w.fs
	res := &fsckDirResult{key: key, dirID: rec.DirID}
	name := rec.Name
	if name == "" {
		name = "/"
	}
	res.desc = fmt.Sprintf("dir %q", name)
	if fs.cfg.Layout == LayoutEmbedded && key == w.rootKey {
		// The embedded root record lives in a standalone data block (every
		// other record is inside its parent's content).
		res.claim(key.blk, "root record")
	}
	for _, spill := range w.spillChain(rec) {
		res.claim(spill, res.desc+" mapping spill")
	}
	var runs []alloc.Range
	for _, run := range extentsToRuns(w.readMapping(rec)) {
		if run.Start < 0 || run.Count < 0 || run.End() > fs.cfg.Blocks {
			res.problemf("%s content run [%d,+%d) outside device", res.desc, run.Start, run.Count)
			continue
		}
		for b := run.Start; b < run.End(); b++ {
			res.claim(b, res.desc+" content")
		}
		runs = append(runs, run)
	}
	if fs.cfg.Layout == LayoutEmbedded {
		w.scanEmbedded(res, rec, ino, runs)
	} else {
		w.scanNormal(res, rec, ino, runs)
	}
	w.blocks += res.blocks
	w.dirs = append(w.dirs, res)
}

// scanEmbedded walks an embedded directory's content records.
func (w *fsckWalker) scanEmbedded(res *fsckDirResult, dirRec *inode.Inode, dirIno inode.Ino, runs []alloc.Range) {
	fs := w.fs
	if dirRec.DirID == 0 {
		res.problemf("embedded dir %v has no directory identification", dirIno)
		return
	}
	_, self, err := w.tableEntry(dirRec.DirID)
	if err != nil {
		res.problemf("dir table entry %d: %v", dirRec.DirID, err)
	} else if self != dirIno {
		res.problemf("dir table entry %d points at %v, record says %v", dirRec.DirID, self, dirIno)
	}
	per := fs.geo.InodesPerBlock
	var slot uint32
	var degreeSum int64
	for _, run := range runs {
		for b := run.Start; b < run.End(); b++ {
			buf := w.view.Read(b)
			res.blocks++
			for i := int64(0); i < per; i++ {
				cur := slot
				slot++
				rec, err := inode.Unmarshal(buf[i*recordSize : (i+1)*recordSize])
				if err != nil {
					res.problemf("dir %d slot %d: %v", dirRec.DirID, cur, err)
					continue
				}
				if rec.Mode == inode.ModeNone || rec.Nlink == 0 {
					continue
				}
				want := inode.MakeIno(dirRec.DirID, cur)
				if rec.Ino != want {
					res.problemf("dir %d slot %d: record ino %v, want %v", dirRec.DirID, cur, rec.Ino, want)
				}
				if rec.IsDir() {
					res.subdirs++
					child := recKey{b, int(i * recordSize)}
					res.edges = append(res.edges, fsckEdge{
						child:     child,
						childDesc: fmt.Sprintf("dir %q", rec.Name),
						from:      res.desc,
					})
					w.visit(child, rec, rec.Ino)
					continue
				}
				res.files++
				degreeSum += int64(rec.ExtentCount)
				for _, spill := range w.spillChain(rec) {
					res.claim(spill, fmt.Sprintf("file %q spill", rec.Name))
				}
			}
		}
	}
	if int64(dirRec.Aux) != degreeSum {
		// The numerator is maintained in memory and persisted on the
		// next structural touch, so bounded drift is expected.
		res.advisories = append(res.advisories, fmt.Sprintf(
			"dir %d: fragmentation-degree numerator %d, recomputed %d (lazily persisted)",
			dirRec.DirID, dirRec.Aux, degreeSum))
	}
	// Size counts files plus subdirectories in embTouchDir, so the stored
	// value must stay within [files, files+subdirs]: below means entries
	// appeared that the record never counted, above means a stale
	// over-count survived (e.g. a torn commit that lost deletions).
	if dirRec.Size < res.files {
		res.problemf("dir %d: file count %d below recomputed %d", dirRec.DirID, dirRec.Size, res.files)
	}
	if dirRec.Size > res.files+res.subdirs {
		res.problemf("dir %d: file count %d above recomputed %d files + %d subdirectories (stale over-count)",
			dirRec.DirID, dirRec.Size, res.files, res.subdirs)
	}
}

// scanNormal walks a traditional directory's entry blocks.
func (w *fsckWalker) scanNormal(res *fsckDirResult, dirRec *inode.Inode, dirIno inode.Ino, runs []alloc.Range) {
	fs := w.fs
	per := fs.direntsPerBlock()
	for _, run := range runs {
		for b := run.Start; b < run.End(); b++ {
			buf := w.view.Read(b)
			res.blocks++
			for i := 0; i < per; i++ {
				ent := buf[i*direntSize : (i+1)*direntSize]
				ino := inode.Ino(binary.LittleEndian.Uint64(ent[0:]))
				if ino == 0 {
					continue
				}
				nameLen := int(ent[8])
				if nameLen > direntSize-9 {
					res.problemf("dir %v: corrupt dirent name length %d", dirIno, nameLen)
					continue
				}
				name := string(ent[9 : 9+nameLen])
				slot := int64(ino)
				if slot >= fs.geo.Groups*fs.geo.InodesPerGroup {
					res.problemf("dirent %q: inode %d outside inode tables", name, slot)
					continue
				}
				res.inodeRefs = append(res.inodeRefs, slot)
				g := slot / fs.geo.InodesPerGroup
				idx := slot % fs.geo.InodesPerGroup
				if fs.ibitmap[g][idx/64]&(1<<uint(idx%64)) == 0 {
					res.problemf("dirent %q: inode %d not set in inode bitmap", name, slot)
				}
				blk, off := fs.geo.slotLocation(slot)
				rec, err := w.inodeAt(blk, off)
				if err != nil {
					res.problemf("inode %d: %v", slot, err)
					continue
				}
				if rec.Mode == inode.ModeNone {
					res.problemf("dirent %q points at cleared inode %d", name, slot)
					continue
				}
				if rec.IsDir() {
					res.subdirs++
					child := recKey{blk, off}
					res.edges = append(res.edges, fsckEdge{
						child:     child,
						childDesc: fmt.Sprintf("dir %q", rec.Name),
						from:      res.desc,
					})
					w.visit(child, rec, ino)
					continue
				}
				res.files++
				for _, spill := range w.spillChain(rec) {
					res.claim(spill, fmt.Sprintf("file %q spill", name))
				}
			}
		}
	}
}

// scanGroup snapshots one block group's allocator occupancy (data area
// only — the fixed metadata regions are format-time reservations) and,
// in the normal layout, its inode-bitmap bits.
func (w *fsckWalker) scanGroup(g int64) {
	w.tasks++
	fs := w.fs
	res := &fsckGroupResult{group: g}
	res.allocated = fs.alloc.AllocatedRunsIn(fs.geo.dataStart(g), fs.geo.groupEnd(g))
	if fs.cfg.Layout == LayoutNormal {
		base := g * fs.geo.InodesPerGroup
		for wi, word := range fs.ibitmap[g] {
			if word == 0 {
				continue
			}
			for bit := 0; bit < 64; bit++ {
				if word&(1<<uint(bit)) == 0 {
					continue
				}
				idx := int64(wi)*64 + int64(bit)
				if idx < fs.geo.InodesPerGroup {
					res.setSlots = append(res.setSlots, base+idx)
				}
			}
		}
	}
	w.groups = append(w.groups, res)
}

// scanTable enumerates the live entries of the global directory table
// (embedded layout) for the resolution stage's orphan check.
func (w *fsckWalker) scanTable() {
	w.tasks++
	fs := w.fs
	per := int(fs.cfg.BlockSize) / tableEntrySize
	for blk := fs.geo.TableStart; blk < fs.geo.TableStart+fs.geo.TableBlocks; blk++ {
		buf := w.view.Read(blk)
		w.blocks++
		for i := 0; i < per; i++ {
			off := i * tableEntrySize
			parent := inode.Ino(binary.LittleEndian.Uint64(buf[off:]))
			self := inode.Ino(binary.LittleEndian.Uint64(buf[off+8:]))
			if self == 0 {
				continue
			}
			w.table = append(w.table, fsckTableEntry{
				dirID:  uint32(int(blk-fs.geo.TableStart)*per + i),
				parent: parent,
				self:   self,
			})
		}
	}
}

// inodeAt reads and decodes a record through the view.
func (w *fsckWalker) inodeAt(blk int64, off int) (*inode.Inode, error) {
	buf := w.view.Read(blk)
	if off < 0 || off+recordSize > len(buf) {
		return nil, fmt.Errorf("mdfs: record offset %d outside block", off)
	}
	return inode.Unmarshal(buf[off : off+recordSize])
}

// spillChain mirrors FS.spillChain through the view: the record's spill
// slots, then each block's next pointer, cycle-safe via the seen set.
func (w *fsckWalker) spillChain(rec *inode.Inode) []int64 {
	var chain []int64
	seen := map[int64]bool{}
	for _, s := range rec.Spill {
		blk := s
		for blk != 0 && !seen[blk] {
			seen[blk] = true
			chain = append(chain, blk)
			if blk < 0 || blk >= w.fs.cfg.Blocks {
				break // out-of-device link: claimable, not followable
			}
			buf := w.view.Read(blk)
			blk = int64(binary.LittleEndian.Uint64(buf[4:]))
		}
	}
	return chain
}

// readMapping mirrors FS.readMapping through the view.
func (w *fsckWalker) readMapping(rec *inode.Inode) []extent.Extent {
	out := append([]extent.Extent(nil), rec.Inline...)
	remaining := int(rec.ExtentCount) - len(rec.Inline)
	for _, blk := range w.spillChain(rec) {
		if remaining <= 0 {
			break
		}
		if blk < 0 || blk >= w.fs.cfg.Blocks {
			continue
		}
		buf := w.view.Read(blk)
		n := int(binary.LittleEndian.Uint32(buf[0:]))
		if max := w.fs.extentsPerSpill(); n > max {
			n = max
		}
		for i := 0; i < n && remaining > 0; i++ {
			out = append(out, decodeExtent(buf[spillHeader+i*extentBytes:]))
			remaining--
		}
	}
	return out
}

// tableEntry mirrors FS.readTableEntry through the view.
func (w *fsckWalker) tableEntry(dirID uint32) (parent, self inode.Ino, err error) {
	fs := w.fs
	blk, off := fs.tableLocation(dirID)
	if blk >= fs.geo.TableStart+fs.geo.TableBlocks {
		return 0, 0, fmt.Errorf("mdfs: directory id %d outside table", dirID)
	}
	buf := w.view.Read(blk)
	parent = inode.Ino(binary.LittleEndian.Uint64(buf[off:]))
	self = inode.Ino(binary.LittleEndian.Uint64(buf[off+8:]))
	if self == 0 {
		return 0, 0, fmt.Errorf("%w: directory id %d", ErrNotExist, dirID)
	}
	return parent, self, nil
}
