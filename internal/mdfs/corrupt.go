package mdfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"redbud/internal/extent"
	"redbud/internal/inode"
)

// Corruption injection for fsck testing: each kind performs targeted
// on-disk surgery that a healthy code path never would, then commits and
// checkpoints it so both a live Fsck and a SaveImage/LoadImage round trip
// observe the damage. The in-memory namespace is deliberately left
// untouched where possible — corruption is an on-disk phenomenon.
//
// Two kinds are live-only: "bitmap-orphan" and "leak" damage in-memory
// state (inode bitmap, space allocator) that Remount and LoadImage
// rebuild from the namespace, so they cannot survive an image round trip
// by construction.

// CorruptionKinds lists every kind InjectCorruption accepts, with the
// layouts each applies to.
func CorruptionKinds() []string {
	return []string{
		"cycle",         // dirent graph cycle / cross-link (both layouts)
		"dup-claim",     // two directories claim one block (both layouts)
		"size-over",     // stale over-counted directory Size (embedded)
		"table-orphan",  // live directory-table entry, no directory (embedded)
		"bitmap-orphan", // inode-bitmap bit with no dirent (normal, live-only)
		"leak",          // allocated blocks reachable by nothing (live-only)
	}
}

// InjectCorruption damages the file system on disk so that fsck must
// report the named finding class. It returns an error for kinds the
// configured layout cannot express.
func (fs *FS) InjectCorruption(kind string) error {
	var err error
	switch kind {
	case "cycle":
		err = fs.corruptCycle()
	case "dup-claim":
		err = fs.corruptDupClaim()
	case "size-over":
		err = fs.corruptSizeOver()
	case "table-orphan":
		err = fs.corruptTableOrphan()
	case "bitmap-orphan":
		err = fs.corruptBitmapOrphan()
	case "leak":
		err = fs.corruptLeak()
	default:
		return fmt.Errorf("mdfs: unknown corruption kind %q (want one of %v)", kind, CorruptionKinds())
	}
	if err != nil {
		return err
	}
	return fs.Sync()
}

// subdirs returns every non-root directory, sorted by inode number for
// deterministic victim selection.
func (fs *FS) subdirs() []*dir {
	var out []*dir
	for ino, d := range fs.dirs {
		if ino != fs.root {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ino < out[j].ino })
	return out
}

// contentRuns returns the directory's content runs regardless of layout
// (dirent blocks expressed as single-block runs in the normal layout).
func (fs *FS) contentRuns(d *dir) []extent.Extent {
	rec, err := fs.inodeAt(fs.store, d.recBlock, d.recOff)
	if err != nil {
		return nil
	}
	return fs.readMapping(fs.store, rec)
}

// redirectMapping rewrites the victim directory's on-disk layout mapping
// to the given extents, dropping any spill chain from the record (the
// chain blocks stay allocated — more damage, which fsck must tolerate).
func (fs *FS) redirectMapping(d *dir, exts []extent.Extent) error {
	rec, err := fs.inodeAt(fs.store, d.recBlock, d.recOff)
	if err != nil {
		return err
	}
	if len(exts) > inode.InlineExtents {
		exts = exts[:inode.InlineExtents]
	}
	rec.Inline = exts
	rec.ExtentCount = uint32(len(exts))
	rec.Spill = [inode.SpillSlots]int64{}
	return fs.writeInodeAt(d.recBlock, d.recOff, rec)
}

// corruptCycle makes the dirent graph re-enter itself. Embedded layout:
// a subdirectory's content mapping is redirected at the root's content,
// so the walk reaches every root-level record a second time. Normal
// layout: a dirent naming the root's inode is planted in a subdirectory,
// a direct child→ancestor edge.
func (fs *FS) corruptCycle() error {
	subs := fs.subdirs()
	if len(subs) == 0 {
		return fmt.Errorf("mdfs: cycle corruption needs at least one subdirectory")
	}
	victim := subs[0]
	if fs.cfg.Layout == LayoutEmbedded {
		rootRuns := fs.contentRuns(fs.dirs[fs.root])
		if len(rootRuns) == 0 {
			return fmt.Errorf("mdfs: root has no content to redirect at")
		}
		return fs.redirectMapping(victim, rootRuns)
	}
	// Plant a dirent for the root inode in the victim's first entry block.
	if len(victim.direntBlocks) == 0 {
		return fmt.Errorf("mdfs: victim directory has no entry blocks")
	}
	per := fs.direntsPerBlock()
	for _, blk := range victim.direntBlocks {
		buf := fs.store.Read(blk)
		for i := 0; i < per; i++ {
			if ino, _, _ := dirent(buf, i); ino != 0 {
				continue
			}
			ent := make([]byte, direntSize)
			binary.LittleEndian.PutUint64(ent[0:], uint64(fs.root))
			name := "loop"
			ent[8] = byte(len(name))
			copy(ent[9:], name)
			fs.store.WriteAt(blk, i*direntSize, ent)
			return nil
		}
	}
	return fmt.Errorf("mdfs: no free dirent slot for cycle corruption")
}

// corruptDupClaim points a subdirectory's mapping at a block the root
// already owns — two directories claiming one block. A victim in a
// different allocation group than the root is preferred so the duplicate
// crosses scan-task boundaries.
func (fs *FS) corruptDupClaim() error {
	subs := fs.subdirs()
	if len(subs) == 0 {
		return fmt.Errorf("mdfs: dup-claim corruption needs at least one subdirectory")
	}
	root := fs.dirs[fs.root]
	victim := subs[0]
	for _, d := range subs {
		if d.group != root.group {
			victim = d
			break
		}
	}
	rootRuns := fs.contentRuns(root)
	if len(rootRuns) == 0 {
		return fmt.Errorf("mdfs: root has no content to duplicate")
	}
	dup := []extent.Extent{{Logical: 0, Physical: rootRuns[0].Physical, Count: 1}}
	return fs.redirectMapping(victim, dup)
}

// corruptSizeOver inflates an embedded directory's stored Size beyond
// anything its records can account for — the stale over-count a torn
// commit that lost deletions would leave.
func (fs *FS) corruptSizeOver() error {
	if fs.cfg.Layout != LayoutEmbedded {
		return fmt.Errorf("mdfs: size-over corruption requires the embedded layout")
	}
	subs := fs.subdirs()
	if len(subs) == 0 {
		return fmt.Errorf("mdfs: size-over corruption needs at least one subdirectory")
	}
	victim := subs[0]
	rec, err := fs.inodeAt(fs.store, victim.recBlock, victim.recOff)
	if err != nil {
		return err
	}
	rec.Size += 7
	return fs.writeInodeAt(victim.recBlock, victim.recOff, rec)
}

// corruptTableOrphan writes a live directory-table entry whose directory
// does not exist — table damage that survives an image round trip.
func (fs *FS) corruptTableOrphan() error {
	if fs.cfg.Layout != LayoutEmbedded {
		return fmt.Errorf("mdfs: table-orphan corruption requires the embedded layout")
	}
	dirID := fs.nextDir + 7
	if blk, _ := fs.tableLocation(dirID); blk >= fs.geo.TableStart+fs.geo.TableBlocks {
		return fmt.Errorf("mdfs: directory id %d outside table", dirID)
	}
	return fs.writeTableEntry(dirID, fs.root, inode.MakeIno(dirID, 0))
}

// corruptBitmapOrphan sets an unused inode-bitmap bit: an inode charge
// with no dirent referencing it. Live-only — Remount rebuilds the bitmap
// from the namespace.
func (fs *FS) corruptBitmapOrphan() error {
	if fs.cfg.Layout != LayoutNormal {
		return fmt.Errorf("mdfs: bitmap-orphan corruption requires the normal layout")
	}
	for slot := int64(1); slot < fs.geo.Groups*fs.geo.InodesPerGroup; slot++ {
		g := slot / fs.geo.InodesPerGroup
		idx := slot % fs.geo.InodesPerGroup
		if fs.ibitmap[g][idx/64]&(1<<uint(idx%64)) == 0 {
			fs.markSlotUsed(slot)
			return nil
		}
	}
	return fmt.Errorf("mdfs: no free inode slot to orphan")
}

// corruptLeak allocates data blocks and links them to nothing. Live-only
// — LoadImage rebuilds the allocator from the reachable namespace.
func (fs *FS) corruptLeak() error {
	_, err := fs.allocData(fs.geo.dataStart(0), 4)
	return err
}
