package mdfs

import (
	"encoding/binary"
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/extent"
	"redbud/internal/inode"
)

// This file is the layout-independent public API of the metadata file
// system. Each operation charges its disk accesses through the store,
// mutates the namespace, and commits according to the sync policy.

// superblock layout (block 0).
const (
	superMagic  = 0x4D694621 // "MiF!"
	offSMagic   = 0
	offSLayout  = 4
	offSRootBlk = 8
	offSRootOff = 16
	offSRootIno = 24
	offSNextDir = 32
)

// writeSuper journals the superblock.
func (fs *FS) writeSuper() {
	buf := make([]byte, fs.cfg.BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[offSMagic:], superMagic)
	le.PutUint32(buf[offSLayout:], uint32(fs.cfg.Layout))
	root := fs.dirs[fs.root]
	le.PutUint64(buf[offSRootBlk:], uint64(root.recBlock))
	le.PutUint64(buf[offSRootOff:], uint64(root.recOff))
	le.PutUint64(buf[offSRootIno:], uint64(fs.root))
	le.PutUint32(buf[offSNextDir:], fs.nextDir)
	fs.store.Write(0, buf)
}

// makeRoot dispatches root creation by layout.
func (fs *FS) makeRoot() error {
	if fs.cfg.Layout == LayoutEmbedded {
		return fs.embMakeRoot()
	}
	return fs.normalMakeRoot()
}

// Mkdir creates a directory under parent and returns its inode number.
func (fs *FS) Mkdir(parent inode.Ino, name string) (inode.Ino, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return 0, err
	}
	if _, ok := d.names.byName[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrExist, name)
	}
	var ino inode.Ino
	if fs.cfg.Layout == LayoutEmbedded {
		ino, err = fs.embCreate(d, name, inode.ModeDir)
	} else {
		ino, err = fs.normalCreate(d, name, inode.ModeDir)
	}
	if err != nil {
		return 0, err
	}
	fs.stats.Mkdirs++
	return ino, fs.finishOp()
}

// Create creates a regular file under parent and returns its inode number.
func (fs *FS) Create(parent inode.Ino, name string) (inode.Ino, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return 0, err
	}
	if _, ok := d.names.byName[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrExist, name)
	}
	var ino inode.Ino
	if fs.cfg.Layout == LayoutEmbedded {
		ino, err = fs.embCreate(d, name, inode.ModeFile)
	} else {
		ino, err = fs.normalCreate(d, name, inode.ModeFile)
	}
	if err != nil {
		return 0, err
	}
	fs.stats.Creates++
	return ino, fs.finishOp()
}

// Lookup resolves name under parent, charging the layout's lookup reads.
func (fs *FS) Lookup(parent inode.Ino, name string) (inode.Ino, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return 0, err
	}
	fs.stats.Lookups++
	e, ok := d.names.byName[name]
	ino := e.ino
	if fs.cfg.Layout == LayoutEmbedded {
		if ok {
			if _, blk, _, err := fs.embLocate(ino); err == nil {
				fs.store.Read(blk)
			}
		} else {
			// Negative lookup: the in-memory index answers, but a
			// cold MDS validates against the directory content.
			if len(d.content) > 0 {
				fs.store.Read(d.content[0].Start)
			}
		}
	} else {
		fs.chargeNormalLookup(d, name)
	}
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return ino, nil
}

// Stat reads an inode by number.
func (fs *FS) Stat(ino inode.Ino) (inode.Inode, error) {
	fs.stats.Stats++
	ino = fs.Resolve(ino)
	var rec *inode.Inode
	var err error
	if fs.cfg.Layout == LayoutEmbedded {
		rec, err = fs.embStat(ino)
	} else {
		rec, err = fs.normalStat(ino)
	}
	if err != nil {
		return inode.Inode{}, err
	}
	return *rec, nil
}

// StatName is the fstat-by-name pair of Figure 1(b): resolve the entry in
// the parent directory, then read the inode.
func (fs *FS) StatName(parent inode.Ino, name string) (inode.Inode, error) {
	ino, err := fs.Lookup(parent, name)
	if err != nil {
		return inode.Inode{}, err
	}
	return fs.Stat(ino)
}

// Utime updates an inode's mtime.
func (fs *FS) Utime(ino inode.Ino) error {
	fs.stats.Utimes++
	ino = fs.Resolve(ino)
	loc, err := fs.locate(ino)
	if err != nil {
		return err
	}
	rec, err := fs.inodeAt(fs.store, loc.blk, loc.off)
	if err != nil {
		return err
	}
	rec.MTime = fs.now()
	if err := fs.writeInodeAt(loc.blk, loc.off, rec); err != nil {
		return err
	}
	return fs.finishOp()
}

// recLoc is an inode record location.
type recLoc struct {
	blk int64
	off int
}

// locate finds an inode record's block and offset.
func (fs *FS) locate(ino inode.Ino) (recLoc, error) {
	if fs.cfg.Layout == LayoutEmbedded {
		if ino == fs.root {
			r := fs.dirs[fs.root]
			return recLoc{r.recBlock, r.recOff}, nil
		}
		_, blk, off, err := fs.embLocate(ino)
		return recLoc{blk, off}, err
	}
	blk, off := fs.geo.slotLocation(int64(ino))
	return recLoc{blk, off}, nil
}

// Unlink removes a file entry. Directories are removed with Rmdir.
func (fs *FS) Unlink(parent inode.Ino, name string) error {
	d, err := fs.dirOf(parent)
	if err != nil {
		return err
	}
	e, ok := d.names.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	ino := e.ino
	if _, isDir := fs.dirs[ino]; isDir {
		return fmt.Errorf("%w: %q", ErrIsDir, name)
	}
	fs.stats.Unlinks++
	if fs.cfg.Layout == LayoutEmbedded {
		err = fs.embUnlink(d, name, ino)
	} else {
		fs.chargeNormalLookup(d, name)
		err = fs.normalUnlink(d, name, ino)
	}
	if err != nil {
		return err
	}
	return fs.finishOp()
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(parent inode.Ino, name string) error {
	d, err := fs.dirOf(parent)
	if err != nil {
		return err
	}
	e, ok := d.names.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	ino := e.ino
	child, isDir := fs.dirs[ino]
	if !isDir {
		return fmt.Errorf("%w: %q", ErrNotDir, name)
	}
	if child.names.len() != 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, name)
	}
	fs.stats.Unlinks++
	if fs.cfg.Layout == LayoutEmbedded {
		for _, r := range child.content {
			if err := fs.freeData(r); err != nil {
				return err
			}
		}
		if err := fs.writeTableEntry(child.dirID, 0, 0); err != nil {
			return err
		}
		delete(fs.dirsByID, child.dirID)
		if err := fs.embUnlink(d, name, ino); err != nil {
			return err
		}
	} else {
		for _, blk := range child.direntBlocks {
			if err := fs.freeData(alloc.Range{Start: blk, Count: 1}); err != nil {
				return err
			}
		}
		fs.chargeNormalLookup(d, name)
		if err := fs.normalUnlink(d, name, ino); err != nil {
			return err
		}
	}
	delete(fs.dirs, ino)
	return fs.finishOp()
}

// Readdir lists the directory's entry names in creation order, charging
// the content reads.
func (fs *FS) Readdir(parent inode.Ino) ([]string, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return nil, err
	}
	fs.stats.Readdirs++
	if fs.cfg.Layout == LayoutEmbedded {
		fs.embReaddirCharge(d)
	} else {
		fs.normalReaddirCharge(d)
	}
	return d.names.names(), nil
}

// ReaddirPlus is the aggregated readdir+stat (readdirplus): it returns the
// inode of every entry, exercising the on-disk placement exactly where the
// two layouts differ.
func (fs *FS) ReaddirPlus(parent inode.Ino) ([]inode.Inode, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return nil, err
	}
	fs.stats.Readdirs++
	if fs.cfg.Layout == LayoutEmbedded {
		return fs.embReaddirPlus(d)
	}
	return fs.normalReaddirPlus(d)
}

// Rename moves an entry. In the embedded layout the inode moves with it
// and the returned inode number differs from the old one, with the old→new
// correlation retained; in the normal layout the number is stable.
func (fs *FS) Rename(srcParent inode.Ino, name string, dstParent inode.Ino, newName string) (inode.Ino, error) {
	src, err := fs.dirOf(srcParent)
	if err != nil {
		return 0, err
	}
	dst, err := fs.dirOf(dstParent)
	if err != nil {
		return 0, err
	}
	e, ok := src.names.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	ino := e.ino
	if _, ok := dst.names.byName[newName]; ok {
		return 0, fmt.Errorf("%w: %q", ErrExist, newName)
	}
	fs.stats.Renames++
	var newIno inode.Ino
	if fs.cfg.Layout == LayoutEmbedded {
		newIno, err = fs.embRename(src, name, dst, newName, ino)
	} else {
		fs.chargeNormalLookup(src, name)
		fs.clearDirent(src, name)
		if err = fs.appendDirent(dst, newName, ino); err == nil {
			if err = fs.touchDirRecord(src); err == nil {
				err = fs.touchDirRecord(dst)
			}
		}
		newIno = ino
	}
	if err != nil {
		return 0, err
	}
	return newIno, fs.finishOp()
}

// SetLayout replaces a file's layout mapping — the MDS-side bookkeeping of
// data placement reported by the IO servers. The mapping head lands in the
// inode tail; overflow goes to spill blocks near the inode (embedded) or
// the group data area (normal).
func (fs *FS) SetLayout(ino inode.Ino, exts []extent.Extent) error {
	ino = fs.Resolve(ino)
	loc, err := fs.locate(ino)
	if err != nil {
		return err
	}
	rec, err := fs.inodeAt(fs.store, loc.blk, loc.off)
	if err != nil {
		return err
	}
	if rec.Mode != inode.ModeFile {
		return fmt.Errorf("%w: SetLayout on %v", ErrIsDir, ino)
	}
	oldUnits := int64(rec.ExtentCount)
	goal := fs.spillGoal(ino)
	if _, err := fs.writeMapping(rec, exts, goal); err != nil {
		return err
	}
	rec.MTime = fs.now()
	if err := fs.writeInodeAt(loc.blk, loc.off, rec); err != nil {
		return err
	}
	if fs.cfg.Layout == LayoutEmbedded {
		if d, ok := fs.dirsByID[ino.DirID()]; ok {
			// The fragmentation-degree numerator is maintained in
			// memory and persisted by the next structural touch of
			// the directory record — per-mapping-update rewrites of
			// the parent record would cost a dirty block per data
			// write for a heuristic counter.
			d.extentUnits += int64(len(exts)) - oldUnits
			if d.extentUnits < 0 {
				d.extentUnits = 0
			}
		}
	}
	return fs.finishOp()
}

// spillGoal picks where a file's spill blocks should land.
func (fs *FS) spillGoal(ino inode.Ino) int64 {
	if fs.cfg.Layout == LayoutEmbedded {
		if d, ok := fs.dirsByID[ino.DirID()]; ok {
			return fs.contentEnd(d)
		}
		return fs.geo.dataStart(0)
	}
	group := int64(ino) / fs.geo.InodesPerGroup
	if group >= fs.geo.Groups {
		group = 0
	}
	return fs.geo.dataStart(group)
}

// GetLayout reads a file's full layout mapping — the open-getlayout
// aggregate of block-based parallel file systems.
func (fs *FS) GetLayout(ino inode.Ino) ([]extent.Extent, error) {
	ino = fs.Resolve(ino)
	loc, err := fs.locate(ino)
	if err != nil {
		return nil, err
	}
	rec, err := fs.inodeAt(fs.store, loc.blk, loc.off)
	if err != nil {
		return nil, err
	}
	if rec.Mode != inode.ModeFile {
		return nil, fmt.Errorf("%w: GetLayout on %v", ErrIsDir, ino)
	}
	return fs.readMapping(fs.store, rec), nil
}

// LocateInode resolves an arbitrary inode number to its record the way a
// management job would, without the namespace index: through the global
// directory table (embedded) or the inode-table geometry (normal).
func (fs *FS) LocateInode(ino inode.Ino) (inode.Inode, error) {
	ino = fs.Resolve(ino)
	if fs.cfg.Layout == LayoutEmbedded {
		rec, err := fs.embLocateByNumber(ino)
		if err != nil {
			return inode.Inode{}, err
		}
		return *rec, nil
	}
	rec, err := fs.normalStat(ino)
	if err != nil {
		return inode.Inode{}, err
	}
	return *rec, nil
}

// FragDegree returns a directory's fragmentation degree.
func (fs *FS) FragDegree(parent inode.Ino) (float64, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return 0, err
	}
	return d.fragDegree(), nil
}

// Entries returns the number of entries in a directory.
func (fs *FS) Entries(parent inode.Ino) (int, error) {
	d, err := fs.dirOf(parent)
	if err != nil {
		return 0, err
	}
	return d.names.len(), nil
}
