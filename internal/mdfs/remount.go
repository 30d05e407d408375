package mdfs

import (
	"fmt"

	"redbud/internal/inode"
)

// Remount rebuilds the in-memory namespace from the on-disk state, the way
// a fresh mount (possibly after Crash + Recover) would. It validates the
// superblock, walks the directory tree from the root record, and
// reconstructs every directory's index, slot accounting, and — in the
// normal layout — the inode bitmaps.
func (fs *FS) Remount() error {
	sr, rec, err := fs.readSuper(fs.store)
	if err != nil {
		return fmt.Errorf("mdfs: %w", err)
	}
	fs.nextDir = sr.nextDir

	fs.dirs = make(map[inode.Ino]*dir)
	fs.dirsByID = make(map[uint32]*dir)
	fs.renamed = make(map[inode.Ino]inode.Ino)
	fs.remountSeen = make(map[recKey]bool)
	defer func() { fs.remountSeen = nil }()
	if fs.cfg.Layout == LayoutNormal {
		for g := range fs.ibitmap {
			for w := range fs.ibitmap[g] {
				fs.ibitmap[g][w] = 0
			}
			fs.inodeFree[g] = fs.geo.InodesPerGroup
		}
		fs.ibitmap[0][0] |= 1 // reserved slot 0
		fs.inodeFree[0]--
	}

	fs.root = sr.ino
	root, err := fs.loadDir(rec, sr.ino, sr.key.blk, sr.key.off)
	if err != nil {
		return err
	}
	root.parent = sr.ino
	return nil
}

// loadDir reconstructs one directory (and recursively its subdirectories)
// from its on-disk record. A record location reached twice — a directory
// cycle or cross-link, possible only on corrupted state — is loaded once
// and otherwise ignored, and content runs outside the device are skipped:
// mount must terminate on arbitrary damage, and the damage itself is
// fsck's to report.
func (fs *FS) loadDir(rec *inode.Inode, ino inode.Ino, recBlk int64, recOff int) (*dir, error) {
	if fs.remountSeen != nil {
		key := recKey{blk: recBlk, off: recOff}
		if fs.remountSeen[key] {
			return fs.dirs[ino], nil
		}
		fs.remountSeen[key] = true
	}
	d := &dir{
		ino:      ino,
		dirID:    rec.DirID,
		recBlock: recBlk,
		recOff:   recOff,
	}
	runs, _ := fs.dirRuns(fs.store, rec)
	// The record's Size says how many names to expect; believe it only as
	// far as the mapped blocks could hold them.
	if fs.cfg.Layout == LayoutEmbedded {
		d.content = runs
		d.names = newNameIndex(int(min(rec.Size, int64(d.capSlots(fs.geo.InodesPerBlock)))))
		d.extentUnits = int64(rec.Aux)
		if g := fs.geo.groupOf(recBlk); g >= 0 {
			d.group = g
		}
		fs.dirs[ino] = d
		fs.dirsByID[d.dirID] = d
		if err := fs.loadEmbeddedEntries(d); err != nil {
			return nil, err
		}
	} else {
		for _, r := range runs {
			for b := r.Start; b < r.End(); b++ {
				d.addDirentBlock(b)
			}
		}
		d.names = newNameIndex(int(min(rec.Size/direntSize, int64(len(d.direntBlocks)*fs.direntsPerBlock()))))
		if fs.geo.hasSlot(int64(ino)) {
			d.group = int64(ino) / fs.geo.InodesPerGroup
			fs.markSlotUsed(int64(ino))
		}
		fs.dirs[ino] = d
		if err := fs.loadNormalEntries(d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// loadEmbeddedEntries scans a directory's content records.
func (fs *FS) loadEmbeddedEntries(d *dir) error {
	per := fs.geo.InodesPerBlock
	var slot uint32
	var maxUsed int64 = -1
	var tombstones []uint32
	for _, r := range d.content {
		blocks := fs.store.ReadRange(r.Start, r.Count)
		for bi, buf := range blocks {
			for i := int64(0); i < per; i++ {
				recBuf := buf[i*recordSize : (i+1)*recordSize]
				rec, err := inode.Unmarshal(recBuf)
				if err != nil {
					return err
				}
				cur := slot
				slot++
				if rec.Mode == inode.ModeNone {
					tombstones = append(tombstones, cur)
					continue
				}
				maxUsed = int64(cur)
				d.names.add(rec.Name, rec.Ino, 0)
				d.files++
				if rec.IsDir() {
					blk := r.Start + int64(bi)
					if _, err := fs.loadDir(rec, rec.Ino, blk, int(i*recordSize)); err != nil {
						return err
					}
					if _, ok := fs.dirs[rec.Ino]; ok {
						fs.dirs[rec.Ino].parent = d.ino
					}
				}
				if rec.OldIno != 0 {
					fs.renamed[rec.OldIno] = rec.Ino
				}
			}
		}
	}
	d.nextSlot = uint32(maxUsed + 1)
	for _, t := range tombstones {
		if int64(t) <= maxUsed {
			d.freeSlots = append(d.freeSlots, t)
		}
	}
	return nil
}

// loadNormalEntries scans a directory's entry blocks and marks the inode
// slots used.
func (fs *FS) loadNormalEntries(d *dir) error {
	per := fs.direntsPerBlock()
	for bi, blk := range d.direntBlocks {
		buf := fs.store.Read(blk)
		for i := 0; i < per; i++ {
			ino, name, err := dirent(buf, i)
			if err != nil {
				return fmt.Errorf("mdfs: dir %v: %w", d.ino, err)
			}
			if ino == 0 {
				continue
			}
			if !fs.geo.hasSlot(int64(ino)) {
				return fmt.Errorf("mdfs: dirent %q: inode %d outside inode tables", name, int64(ino))
			}
			d.names.add(name, ino, bi*per+i)
			d.slots.set(bi*per + i)
			fs.markSlotUsed(int64(ino))
			recBlk, recOff := fs.geo.slotLocation(int64(ino))
			rec, err := fs.inodeAt(fs.store, recBlk, recOff)
			if err != nil {
				return err
			}
			if rec.IsDir() {
				if _, err := fs.loadDir(rec, ino, recBlk, recOff); err != nil {
					return err
				}
				if child, ok := fs.dirs[ino]; ok {
					child.parent = d.ino
				}
			}
		}
	}
	return nil
}

// markSlotUsed sets an inode-bitmap bit during remount (no journaling: the
// bitmap block contents on disk are already right).
func (fs *FS) markSlotUsed(slot int64) {
	g := slot / fs.geo.InodesPerGroup
	if g < 0 || g >= fs.geo.Groups {
		return
	}
	idx := slot % fs.geo.InodesPerGroup
	word, bit := idx/64, uint(idx%64)
	if fs.ibitmap[g][word]&(1<<bit) == 0 {
		fs.ibitmap[g][word] |= 1 << bit
		fs.inodeFree[g]--
	}
}
