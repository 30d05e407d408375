package mdfs

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"redbud/internal/extent"
	"redbud/internal/inode"
)

// This file implements the traditional (ext3-like) directory placement:
// directory-entry blocks in the data area pointing at inodes in per-group
// inode tables. It is the layout of the original Redbud MDS and — with the
// Htree flag — of the Lustre ext4 MDS baseline.

// direntsPerBlock returns how many fixed-size entries fit a block.
func (fs *FS) direntsPerBlock() int { return int(fs.cfg.BlockSize) / direntSize }

// allocInodeSlot takes a free inode-table slot, preferring the given group,
// and journals the inode-bitmap update.
func (fs *FS) allocInodeSlot(group int64) (int64, error) {
	for pass := int64(0); pass < fs.geo.Groups; pass++ {
		g := (group + pass) % fs.geo.Groups
		if fs.inodeFree[g] == 0 {
			continue
		}
		for w, word := range fs.ibitmap[g] {
			if word == ^uint64(0) {
				continue
			}
			bit := bits.TrailingZeros64(^word)
			idx := int64(w)*64 + int64(bit)
			if idx >= fs.geo.InodesPerGroup {
				break
			}
			slot := g*fs.geo.InodesPerGroup + idx
			fs.setInodeBit(slot, true)
			fs.log(undo{kind: undoInodeAlloc, a: slot})
			fs.dirtyInodeBitmap(g, int64(w))
			return slot, nil
		}
	}
	return 0, fmt.Errorf("mdfs: out of inodes")
}

// freeInodeSlot releases a slot and journals the bitmap update.
func (fs *FS) freeInodeSlot(slot int64) {
	fs.setInodeBit(slot, false)
	fs.log(undo{kind: undoInodeFree, a: slot})
	idx := slot % fs.geo.InodesPerGroup
	fs.dirtyInodeBitmap(slot/fs.geo.InodesPerGroup, idx/64)
}

// setInodeBit marks an inode slot used or free in the in-memory bitmap;
// the callers journal the word.
func (fs *FS) setInodeBit(slot int64, used bool) {
	g, idx := slot/fs.geo.InodesPerGroup, slot%fs.geo.InodesPerGroup
	if used {
		fs.ibitmap[g][idx/64] |= 1 << uint(idx%64)
		fs.inodeFree[g]--
	} else {
		fs.ibitmap[g][idx/64] &^= 1 << uint(idx%64)
		fs.inodeFree[g]++
	}
}

// dirtyInodeBitmap journals one word of a group's inode bitmap.
func (fs *FS) dirtyInodeBitmap(group, word int64) {
	blk := fs.geo.inodeBitmapBlock(group)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], fs.ibitmap[group][word])
	fs.store.WriteAt(blk, int(word*8%fs.cfg.BlockSize), buf[:])
}

// normalMakeRoot creates the root directory in the traditional layout.
func (fs *FS) normalMakeRoot() error {
	slot, err := fs.allocInodeSlot(0)
	if err != nil {
		return err
	}
	ino := inode.Ino(slot)
	blk, off := fs.geo.slotLocation(slot)
	d := &dir{
		ino:      ino,
		parent:   ino,
		group:    0,
		names:    newNameIndex(0),
		recBlock: blk,
		recOff:   off,
	}
	rec := &inode.Inode{Ino: ino, Mode: inode.ModeDir, Nlink: 2, MTime: fs.now(), CTime: fs.opSeq}
	if err := fs.writeInodeAt(blk, off, rec); err != nil {
		return err
	}
	fs.dirs[ino] = d
	fs.root = ino
	fs.writeSuper()
	return nil
}

// chargeNormalLookup accounts the directory-entry reads of resolving a
// name whose index entry the caller has looked up, e if ok: an indexed
// (Htree) directory reads the entry's block; a linear (ext3) directory
// scans from the first block.
func (fs *FS) chargeNormalLookup(d *dir, e entry, ok bool) {
	if len(d.direntBlocks) == 0 {
		return
	}
	blkIdx := int(e.slot) / fs.direntsPerBlock()
	if !ok {
		blkIdx = len(d.direntBlocks) - 1 // negative lookup scans to the end
	}
	if fs.cfg.Htree {
		fs.store.charge(d.direntBlocks[blkIdx])
		return
	}
	for i := 0; i <= blkIdx && i < len(d.direntBlocks); i++ {
		fs.store.charge(d.direntBlocks[i])
	}
}

// addDirentBlock records a block appended to the directory's entry area,
// keeping the mapping current: it changes only here and in the rewind of
// an operation that appended one.
func (d *dir) addDirentBlock(blk int64) {
	logical := int64(len(d.direntBlocks))
	d.direntBlocks = append(d.direntBlocks, blk)
	if n := len(d.direntMap); n > 0 && d.direntMap[n-1].Physical+d.direntMap[n-1].Count == blk {
		d.direntMap[n-1].Count++
		return
	}
	d.direntMap = append(d.direntMap, extent.Extent{Logical: logical, Physical: blk, Count: 1})
}

// appendDirent adds a directory entry in the lowest free slot — reusing a
// hole left by a deletion before growing the directory — extending the
// entry area by one block when every slot is taken.
func (fs *FS) appendDirent(d *dir, name string, ino inode.Ino) error {
	per := fs.direntsPerBlock()
	idx := d.slots.lowestClear(len(d.direntBlocks) * per)
	if idx < 0 {
		idx = len(d.direntBlocks) * per
		goal := fs.groupGoal(d)
		if n := len(d.direntBlocks); n > 0 {
			goal = d.direntBlocks[n-1] + 1
		}
		blk, err := fs.allocBlock(goal)
		if err != nil {
			return err
		}
		d.addDirentBlock(blk)
		fs.log(undo{kind: undoDirentBlock, d: d})
	}
	fs.putDirent(d, idx, name, ino)
	return nil
}

// putDirent writes an entry into slot idx and indexes it.
func (fs *FS) putDirent(d *dir, idx int, name string, ino inode.Ino) {
	per := fs.direntsPerBlock()
	var ent [direntSize]byte
	binary.LittleEndian.PutUint64(ent[0:], uint64(ino))
	ent[8] = byte(len(name))
	copy(ent[9:], name)
	fs.store.WriteAt(d.direntBlocks[idx/per], (idx%per)*direntSize, ent[:])
	d.slots.set(idx)
	fs.addName(d, name, ino, idx)
}

// clearDirent removes an entry and zeroes its on-disk record.
func (fs *FS) clearDirent(d *dir, name string) {
	e, ok := fs.removeName(d, name)
	if !ok {
		return
	}
	idx, per := int(e.slot), fs.direntsPerBlock()
	var zero [direntSize]byte
	fs.store.WriteAt(d.direntBlocks[idx/per], (idx%per)*direntSize, zero[:])
	d.slots.clear(idx)
}

// touchDirRecord updates the directory's own inode (size, mtime) after a
// namespace mutation and persists the entry-area mapping.
func (fs *FS) touchDirRecord(d *dir) error {
	rec := &fs.dirRec
	if err := fs.inodeAt(fs.store, d.recBlock, d.recOff, rec); err != nil {
		return err
	}
	rec.MTime = fs.opSeq
	rec.Size = int64(d.names.len()) * direntSize
	if err := fs.writeMapping(rec, d.direntMap, fs.groupGoal(d)); err != nil {
		return err
	}
	return fs.writeInodeAt(d.recBlock, d.recOff, rec)
}

// normalCreate implements Create for the traditional layout.
func (fs *FS) normalCreate(d *dir, name string, mode inode.Mode) (inode.Ino, error) {
	fs.chargeNormalLookup(d, entry{}, false) // existence check: the name is absent
	slot, err := fs.allocInodeSlot(d.group)
	if err != nil {
		return 0, err
	}
	ino := inode.Ino(slot)
	blk, off := fs.geo.slotLocation(slot)
	rec := &inode.Inode{Ino: ino, Mode: mode, Nlink: 1, MTime: fs.now(), CTime: fs.opSeq}
	if mode == inode.ModeDir {
		rec.Nlink = 2
	}
	if err := fs.writeInodeAt(blk, off, rec); err != nil {
		return 0, err
	}
	if err := fs.appendDirent(d, name, ino); err != nil {
		return 0, err
	}
	if err := fs.touchDirRecord(d); err != nil {
		return 0, err
	}
	if mode == inode.ModeDir {
		fs.addDir(&dir{
			ino:      ino,
			parent:   d.ino,
			group:    fs.pickGroup(),
			names:    newNameIndex(0),
			recBlock: blk,
			recOff:   off,
		})
		fs.takeDirID() // the next directory goes to the next group
	}
	return ino, nil
}

// normalUnlink implements Unlink for the traditional layout.
func (fs *FS) normalUnlink(d *dir, name string, ino inode.Ino) error {
	blk, off := fs.geo.slotLocation(int64(ino))
	rec := &fs.rec
	if err := fs.inodeAt(fs.store, blk, off, rec); err != nil {
		return err
	}
	if err := fs.freeSpill(rec); err != nil {
		return err
	}
	fs.clearDirent(d, name)
	fs.store.WriteAt(blk, off, zeroRecord[:]) // clear the record
	fs.freeInodeSlot(int64(ino))
	return fs.touchDirRecord(d)
}

// normalRename implements Rename for the traditional layout: the entry e
// of name moves, the inode number stays.
func (fs *FS) normalRename(src *dir, name string, e entry, dst *dir, newName string) error {
	fs.chargeNormalLookup(src, e, true)
	fs.clearDirent(src, name)
	if err := fs.appendDirent(dst, newName, e.ino); err != nil {
		return err
	}
	if err := fs.touchDirRecord(src); err != nil {
		return err
	}
	return fs.touchDirRecord(dst)
}

// normalStat locates and reads an inode record by number.
func (fs *FS) normalStat(ino inode.Ino) (*inode.Inode, error) {
	blk, off := fs.geo.slotLocation(int64(ino))
	rec := new(inode.Inode)
	if err := fs.inodeAt(fs.store, blk, off, rec); err != nil {
		return nil, err
	}
	if rec.Mode == inode.ModeNone {
		return nil, fmt.Errorf("%w: inode %v", ErrNotExist, ino)
	}
	return rec, nil
}

// normalReaddirCharge reads the whole directory-entry area.
func (fs *FS) normalReaddirCharge(d *dir) {
	for _, run := range d.direntMap {
		fs.store.ReadRange(run.Physical, run.Count)
	}
}

// normalReaddirPlus reads the entry area and then each entry's inode,
// charging the inode-table block reads in readdir order — the traditional
// placement's "at least three disk position time" pattern for aggregated
// metadata operations.
func (fs *FS) normalReaddirPlus(d *dir) ([]inode.Inode, error) {
	fs.normalReaddirCharge(d)
	out := make([]inode.Inode, 0, d.names.len())
	for i, name := range d.names.order {
		if !d.names.live(i) {
			continue
		}
		blk, off := fs.geo.slotLocation(int64(d.names.byName[name].ino))
		rec := new(inode.Inode)
		if err := fs.inodeAt(fs.store, blk, off, rec); err != nil {
			return nil, err
		}
		rec.Name = name // names live in the dirents in this layout
		out = append(out, *rec)
	}
	return out, nil
}
