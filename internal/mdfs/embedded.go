package mdfs

import (
	"encoding/binary"
	"fmt"

	"redbud/internal/inode"
)

// This file implements the MiF embedded directory (paper §4): inodes are
// allocated from the directory content, directory-entry blocks are omitted
// from the on-disk layout, layout mappings are stuffed into inode tails (or
// spill blocks contiguous with the content), and a global directory table
// maps directory identifications to their inodes.

// tableEntrySize is the serialized size of one directory-table entry:
// parent inode number plus self inode number.
const tableEntrySize = 16

// tableLocation maps a directory identification to its table block and
// offset.
func (fs *FS) tableLocation(dirID uint32) (int64, int) {
	per := int(fs.cfg.BlockSize) / tableEntrySize
	blk := fs.geo.TableStart + int64(int(dirID)/per)
	return blk, (int(dirID) % per) * tableEntrySize
}

// writeTableEntry journals the global-directory-table record of dirID:
// "on creating a new directory, the new directory inode number is mapped
// to a unique directory identification and this mapping structure is
// stored into the global directory table".
func (fs *FS) writeTableEntry(dirID uint32, parent, self inode.Ino) error {
	blk, off := fs.tableLocation(dirID)
	if blk >= fs.geo.TableStart+fs.geo.TableBlocks {
		return fmt.Errorf("mdfs: directory table full at id %d", dirID)
	}
	ent := make([]byte, tableEntrySize)
	binary.LittleEndian.PutUint64(ent[0:], uint64(parent))
	binary.LittleEndian.PutUint64(ent[8:], uint64(self))
	fs.store.WriteAt(blk, off, ent)
	return nil
}

// slotLocation maps an embedded slot to its content block and offset.
func (d *dir) slotLocation(slot uint32, inodesPerBlock int64) (int64, int, error) {
	blkIdx := int64(slot) / inodesPerBlock
	for _, r := range d.content {
		if blkIdx < r.Count {
			off := int(int64(slot) % inodesPerBlock * recordSize)
			return r.Start + blkIdx, off, nil
		}
		blkIdx -= r.Count
	}
	return 0, 0, fmt.Errorf("mdfs: slot %d outside directory content", slot)
}

// contentEnd returns the block just past the directory's last content run —
// the allocation goal that keeps growth and spill blocks contiguous.
func (fs *FS) contentEnd(d *dir) int64 {
	if n := len(d.content); n > 0 {
		return d.content[n-1].End()
	}
	return fs.groupGoal(d)
}

// growContent extends the directory's preallocated content. "When
// directory enlarging, the number of preallocated blocks is scaled to
// support large directories."
func (fs *FS) growContent(d *dir) error {
	var have int64
	for _, r := range d.content {
		have += r.Count
	}
	want := have // double
	if want < fs.cfg.DirPreallocBlocks {
		want = fs.cfg.DirPreallocBlocks
	}
	runs, err := fs.allocData(fs.contentEnd(d), want)
	if err != nil {
		return err
	}
	// Coalesce with the previous run when the allocator obliged.
	for _, r := range runs {
		if n := len(d.content); n > 0 && d.content[n-1].End() == r.Start {
			d.content[n-1].Count += r.Count
		} else {
			d.content = append(d.content, r)
		}
	}
	d.runsDirty = true
	return fs.embTouchDir(d)
}

// embAllocSlot takes a free record slot in the directory content, growing
// the content when full.
func (fs *FS) embAllocSlot(d *dir) (uint32, error) {
	if n := len(d.freeSlots); n > 0 {
		slot := d.freeSlots[n-1]
		d.freeSlots = d.freeSlots[:n-1]
		return slot, nil
	}
	if d.nextSlot >= d.capSlots(fs.geo.InodesPerBlock) {
		if err := fs.growContent(d); err != nil {
			return 0, err
		}
	}
	slot := d.nextSlot
	d.nextSlot++
	return slot, nil
}

// embTouchDir persists the directory's own inode record: file count,
// fragmentation-degree numerator (in Aux), mtime — and the content-run
// mapping, but only when the runs actually changed: rewriting the mapping
// (and its spill blocks) on every namespace operation would dirty extra
// blocks per op for nothing.
func (fs *FS) embTouchDir(d *dir) error {
	rec, err := fs.inodeAt(fs.store, d.recBlock, d.recOff)
	if err != nil {
		return err
	}
	rec.MTime = fs.opSeq
	rec.Size = d.files
	rec.DirID = d.dirID
	rec.Aux = uint32(d.extentUnits)
	if d.runsDirty || rec.ExtentCount == 0 {
		if _, err := fs.writeMapping(rec, runsToExtents(d.content), fs.contentEnd(d)); err != nil {
			return err
		}
		d.runsDirty = false
	}
	return fs.writeInodeAt(d.recBlock, d.recOff, rec)
}

// embMakeRoot creates the root directory in the embedded layout. The root
// inode record lives in a dedicated block right after the directory table
// (it has no parent content to live in); every other directory's record is
// embedded in its parent.
func (fs *FS) embMakeRoot() error {
	dirID := fs.nextDir // RootDirID
	fs.nextDir++
	rootBlkRuns, err := fs.allocData(fs.geo.dataStart(0), 1)
	if err != nil {
		return err
	}
	recBlock := rootBlkRuns[0].Start
	// The root inode number lives outside every directory's slot space
	// (directory id 0 means "no directory"), so it can never collide
	// with a child's number.
	ino := inode.MakeIno(0, 1)
	d := &dir{
		ino:      ino,
		dirID:    dirID,
		parent:   ino,
		group:    0,
		names:    newNameIndex(0),
		recBlock: recBlock,
		recOff:   0,
	}
	runs, err := fs.allocData(recBlock+1, fs.cfg.DirPreallocBlocks)
	if err != nil {
		return err
	}
	d.content = runs
	rec := &inode.Inode{Ino: ino, Mode: inode.ModeDir, DirID: dirID, MTime: fs.now(), CTime: fs.opSeq}
	if err := fs.writeInodeAt(recBlock, 0, rec); err != nil {
		return err
	}
	if err := fs.embTouchDir(d); err != nil {
		return err
	}
	if err := fs.writeTableEntry(dirID, ino, ino); err != nil {
		return err
	}
	fs.dirs[ino] = d
	fs.dirsByID[dirID] = d
	fs.root = ino
	fs.writeSuper()
	return nil
}

// embCreate implements Create/Mkdir for the embedded layout: "on creating
// a file, a new block is allocated from reserved directory blocks for the
// new inode".
func (fs *FS) embCreate(d *dir, name string, mode inode.Mode) (inode.Ino, error) {
	slot, err := fs.embAllocSlot(d)
	if err != nil {
		return 0, err
	}
	ino := inode.MakeIno(d.dirID, slot)
	blk, off, err := d.slotLocation(slot, fs.geo.InodesPerBlock)
	if err != nil {
		return 0, err
	}
	rec := &inode.Inode{Ino: ino, Mode: mode, Nlink: 1, Name: name, MTime: fs.now(), CTime: fs.opSeq}
	// "If serious fragmentation is detected, an extra block is thus
	// preallocated and used to stuff mapping structures to be generated."
	if mode == inode.ModeFile && d.fragDegree() > fs.cfg.SpillDegree {
		// Preallocation only reserves the block (journaling the bitmap
		// update); its content is written when mapping units spill.
		runs, err := fs.allocData(fs.contentEnd(d), 1)
		if err != nil {
			return 0, err
		}
		rec.Spill[0] = runs[0].Start
	}
	if mode == inode.ModeDir {
		dirID := fs.nextDir
		fs.nextDir++
		rec.Nlink = 2
		rec.DirID = dirID
		nd := &dir{
			ino:      ino,
			dirID:    dirID,
			parent:   d.ino,
			group:    fs.pickGroup(),
			names:    newNameIndex(0),
			recBlock: blk,
			recOff:   off,
		}
		runs, err := fs.allocData(fs.geo.dataStart(nd.group), fs.cfg.DirPreallocBlocks)
		if err != nil {
			return 0, err
		}
		nd.content = runs
		if err := fs.writeTableEntry(dirID, d.ino, ino); err != nil {
			return 0, err
		}
		fs.dirs[ino] = nd
		fs.dirsByID[dirID] = nd
		if err := fs.writeInodeAt(blk, off, rec); err != nil {
			return 0, err
		}
		if err := fs.embTouchDir(nd); err != nil {
			return 0, err
		}
	} else {
		if err := fs.writeInodeAt(blk, off, rec); err != nil {
			return 0, err
		}
	}
	d.names.add(name, ino, 0)
	d.files++
	if err := fs.embTouchDir(d); err != nil {
		return 0, err
	}
	return ino, nil
}

// embLocate returns the content block and offset of an inode record.
func (fs *FS) embLocate(ino inode.Ino) (*dir, int64, int, error) {
	d, ok := fs.dirsByID[ino.DirID()]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: inode %v", ErrNotExist, ino)
	}
	blk, off, err := d.slotLocation(ino.Offset(), fs.geo.InodesPerBlock)
	return d, blk, off, err
}

// embStat reads an inode record by number: one content-block read — the
// entry and the inode are the same record.
func (fs *FS) embStat(ino inode.Ino) (*inode.Inode, error) {
	if ino == fs.root {
		return fs.inodeAt(fs.store, fs.dirs[fs.root].recBlock, fs.dirs[fs.root].recOff)
	}
	_, blk, off, err := fs.embLocate(ino)
	if err != nil {
		return nil, err
	}
	rec, err := fs.inodeAt(fs.store, blk, off)
	if err != nil {
		return nil, err
	}
	if rec.Mode == inode.ModeNone || rec.Nlink == 0 {
		return nil, fmt.Errorf("%w: inode %v", ErrNotExist, ino)
	}
	return rec, nil
}

// embUnlink implements Unlink for the embedded layout. The record is
// tombstoned (Nlink 0) in its content block; the slot is reused by later
// creates, and the checkpoint's last-write-wins dedup batches neighbouring
// deletions into single home writes — the lazy-free behaviour ("all freed
// files are batched and lazy-free is performed on freed blocks in the same
// directory").
func (fs *FS) embUnlink(d *dir, name string, ino inode.Ino) error {
	_, blk, off, err := fs.embLocate(ino)
	if err != nil {
		return err
	}
	rec, err := fs.inodeAt(fs.store, blk, off)
	if err != nil {
		return err
	}
	if err := fs.freeSpill(rec); err != nil {
		return err
	}
	d.extentUnits -= int64(rec.ExtentCount)
	if d.extentUnits < 0 {
		d.extentUnits = 0
	}
	rec.Nlink = 0
	rec.Mode = inode.ModeNone
	if err := fs.writeInodeAt(blk, off, rec); err != nil {
		return err
	}
	d.names.remove(name)
	d.freeSlots = append(d.freeSlots, ino.Offset())
	d.files--
	if len(d.freeSlots)%fs.cfg.LazyFreeBatch == 0 {
		fs.stats.LazyFree++
	}
	return fs.embTouchDir(d)
}

// embReaddirCharge reads the whole directory content sequentially,
// including spill blocks that sit inside the content region: "when reading
// the whole directory (e.g., ls operations), we opt to read all content in
// directory".
func (fs *FS) embReaddirCharge(d *dir) {
	for _, r := range d.content {
		fs.store.ReadRange(r.Start, r.Count)
	}
}

// embReaddirPlus performs the aggregated readdir+stat with one sequential
// sweep of the directory content — the embedded layout's headline win. The
// records are decoded from the streamed blocks directly, the way the kernel
// consumes a prefetched buffer, so the sweep costs one large read per
// content run no matter how small the MDS cache is.
func (fs *FS) embReaddirPlus(d *dir) ([]inode.Inode, error) {
	byName := make(map[string]inode.Inode, d.names.len())
	per := fs.geo.InodesPerBlock
	for _, r := range d.content {
		for _, buf := range fs.store.ReadRange(r.Start, r.Count) {
			for i := int64(0); i < per; i++ {
				rec, err := inode.Unmarshal(buf[i*recordSize : (i+1)*recordSize])
				if err != nil {
					return nil, err
				}
				if rec.Mode == inode.ModeNone || rec.Nlink == 0 {
					continue
				}
				byName[rec.Name] = *rec
			}
		}
	}
	out := make([]inode.Inode, 0, d.names.len())
	for i, name := range d.names.order {
		if !d.names.live(i) {
			continue
		}
		rec, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q missing from directory content", ErrNotExist, name)
		}
		out = append(out, rec)
	}
	return out, nil
}

// embLocateByNumber resolves an arbitrary inode number through the global
// directory table, walking parent directories: "we can use the directory
// identification portion of the inode number to index its parent
// directory's inode number using the directory table. Then we perform
// tracking back recursively until arriving at the root inode."
func (fs *FS) embLocateByNumber(ino inode.Ino) (*inode.Inode, error) {
	dirID := ino.DirID()
	var chain []inode.Ino
	for {
		parent, self, err := fs.tableEntry(fs.store, dirID)
		if err != nil {
			return nil, err
		}
		if self == 0 {
			return nil, fmt.Errorf("%w: directory id %d", ErrNotExist, dirID)
		}
		chain = append(chain, self)
		if self == parent || self == fs.root {
			break
		}
		dirID = parent.DirID()
		if len(chain) > 1<<16 {
			return nil, fmt.Errorf("mdfs: directory table cycle at %v", ino)
		}
	}
	// Walk back down, reading each directory inode (normally cached).
	for i := len(chain) - 1; i >= 0; i-- {
		if _, err := fs.embStat(chain[i]); err != nil {
			return nil, err
		}
	}
	return fs.embStat(ino)
}

// embRename moves the inode record into the destination directory,
// changing the inode number and keeping the old→new correlation: "because
// inode number encodes the inode's parent directory identification, the
// inode number must be changed".
func (fs *FS) embRename(src *dir, name string, dst *dir, newName string, ino inode.Ino) (inode.Ino, error) {
	_, oldBlk, oldOff, err := fs.embLocate(ino)
	if err != nil {
		return 0, err
	}
	rec, err := fs.inodeAt(fs.store, oldBlk, oldOff)
	if err != nil {
		return 0, err
	}
	slot, err := fs.embAllocSlot(dst)
	if err != nil {
		return 0, err
	}
	newIno := inode.MakeIno(dst.dirID, slot)
	blk, off, err := dst.slotLocation(slot, fs.geo.InodesPerBlock)
	if err != nil {
		return 0, err
	}
	rec.Ino = newIno
	rec.Name = newName
	rec.OldIno = ino
	rec.MTime = fs.opSeq
	if err := fs.writeInodeAt(blk, off, rec); err != nil {
		return 0, err
	}
	// Tombstone the old record.
	fs.store.WriteAt(oldBlk, oldOff, zeroRecord[:])
	src.names.remove(name)
	src.freeSlots = append(src.freeSlots, ino.Offset())
	src.files--
	dst.names.add(newName, newIno, 0)
	dst.files++
	dst.extentUnits += int64(rec.ExtentCount)
	src.extentUnits -= int64(rec.ExtentCount)
	if src.extentUnits < 0 {
		src.extentUnits = 0
	}
	fs.renamed[ino] = newIno
	if rec.Mode == inode.ModeDir {
		d := fs.dirs[ino]
		delete(fs.dirs, ino)
		d.ino = newIno
		d.parent = dst.ino
		fs.dirs[newIno] = d
		d.recBlock, d.recOff = blk, off
		if err := fs.writeTableEntry(rec.DirID, dst.ino, newIno); err != nil {
			return 0, err
		}
	}
	if err := fs.embTouchDir(src); err != nil {
		return 0, err
	}
	if err := fs.embTouchDir(dst); err != nil {
		return 0, err
	}
	return newIno, nil
}
