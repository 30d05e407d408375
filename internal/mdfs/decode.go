package mdfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/extent"
	"redbud/internal/inode"
)

// The on-disk decoders, one per structure. Every reader of the metadata
// image goes through them: the operations, Remount and RebuildAllocator
// read through the charging Store, Fsck through the charge-free StoreView.
// Each checks the bounds its structure can break — a pointer outside the
// device, an offset past its block, a length past its field — so damage
// yields an error or an unfollowed link, never an index out of range.

// blockReader is what the decoders read blocks through: a *Store, which
// charges every read, or a *StoreView, which charges nothing.
type blockReader interface {
	Read(blk int64) []byte
}

// recKey addresses an inode record by its physical location: the identity
// Remount and fsck deduplicate directories on, so a dirent graph that
// reaches one record twice — a cycle or cross-link — is walked once.
type recKey struct {
	blk int64
	off int
}

// inDevice reports whether blk is a block of the device.
func (fs *FS) inDevice(blk int64) bool { return blk >= 0 && blk < fs.cfg.Blocks }

// superRoot is what the superblock says about the namespace: where the
// root directory record lives, its inode number, and the next directory
// identification to hand out.
type superRoot struct {
	key     recKey
	ino     inode.Ino
	nextDir uint32
}

// readSuper decodes the superblock and the root directory record it points
// at.
func (fs *FS) readSuper(rd blockReader) (superRoot, *inode.Inode, error) {
	sb := rd.Read(0)
	le := binary.LittleEndian
	if magic := le.Uint32(sb[offSMagic:]); magic != superMagic {
		return superRoot{}, nil, fmt.Errorf("superblock: bad magic %#x", magic)
	}
	if Layout(le.Uint32(sb[offSLayout:])) != fs.cfg.Layout {
		return superRoot{}, nil, errors.New("superblock: layout mismatch")
	}
	sr := superRoot{
		key:     recKey{blk: int64(le.Uint64(sb[offSRootBlk:])), off: int(le.Uint64(sb[offSRootOff:]))},
		ino:     inode.Ino(le.Uint64(sb[offSRootIno:])),
		nextDir: le.Uint32(sb[offSNextDir:]),
	}
	rec := new(inode.Inode)
	if err := fs.inodeAt(rd, sr.key.blk, sr.key.off, rec); err != nil {
		return sr, nil, fmt.Errorf("root record: %w", err)
	}
	if !rec.IsDir() {
		return sr, nil, fmt.Errorf("root record is not a directory (mode %d)", rec.Mode)
	}
	return sr, rec, nil
}

// inodeAt decodes the inode record at (blk, off) into rec, reusing rec's
// storage: the hot paths decode into an inode the FS keeps for them.
func (fs *FS) inodeAt(rd blockReader, blk int64, off int, rec *inode.Inode) error {
	buf, err := fs.recordAt(rd, blk, off)
	if err != nil {
		return err
	}
	return rec.UnmarshalFrom(buf)
}

// recordAt returns the bytes of the inode record at (blk, off), for a
// reader that decodes them without the name (inode.UnmarshalFields).
func (fs *FS) recordAt(rd blockReader, blk int64, off int) ([]byte, error) {
	if !fs.inDevice(blk) {
		return nil, fmt.Errorf("mdfs: record block %d outside device", blk)
	}
	if off < 0 || off > int(fs.cfg.BlockSize)-recordSize {
		return nil, fmt.Errorf("mdfs: record offset %d outside block", off)
	}
	return rd.Read(blk)[off : off+recordSize], nil
}

// spillChain appends to chain the record's spill blocks in chain order:
// each slot's link, then each block's next pointer, cycle-safe via the
// seen set. A link outside the device ends its chain: it is listed — fsck
// claims it — but never read.
func (fs *FS) spillChain(rd blockReader, rec *inode.Inode, chain []int64) []int64 {
	if rec.Spill == [inode.SpillSlots]int64{} {
		return chain // most records have no spill blocks
	}
	seen := map[int64]bool{}
	for _, blk := range rec.Spill {
		for blk != 0 && !seen[blk] {
			seen[blk] = true
			chain = append(chain, blk)
			if !fs.inDevice(blk) {
				break
			}
			blk = int64(binary.LittleEndian.Uint64(rd.Read(blk)[4:]))
		}
	}
	return chain
}

// readMapping decodes the record's full layout mapping: the inline head,
// then up to ExtentCount units from the spill chain's in-device blocks.
func (fs *FS) readMapping(rd blockReader, rec *inode.Inode) []extent.Extent {
	out := append([]extent.Extent(nil), rec.Inline...)
	remaining := int(rec.ExtentCount) - len(rec.Inline)
	for _, blk := range fs.spillChain(rd, rec, nil) {
		if remaining <= 0 {
			break
		}
		if !fs.inDevice(blk) {
			continue
		}
		buf := rd.Read(blk)
		n := min(int(binary.LittleEndian.Uint32(buf[0:])), fs.extentsPerSpill())
		for i := 0; i < n && remaining > 0; i++ {
			out = append(out, decodeExtent(buf[spillHeader+i*extentBytes:]))
			remaining--
		}
	}
	return out
}

// dirRuns decodes a directory record's content mapping as block runs —
// entry blocks (normal layout) or embedded records — and returns the runs
// that leave the device apart: fsck reports them, a mount skips them.
func (fs *FS) dirRuns(rd blockReader, rec *inode.Inode) (runs, outside []alloc.Range) {
	exts := fs.readMapping(rd, rec)
	runs = make([]alloc.Range, 0, len(exts))
	for _, e := range exts {
		r := alloc.Range{Start: e.Physical, Count: e.Count}
		if r.Start < 0 || r.Count < 0 || r.Start > fs.cfg.Blocks || r.Count > fs.cfg.Blocks-r.Start {
			outside = append(outside, r)
			continue
		}
		runs = append(runs, r)
	}
	return runs, outside
}

// dirent decodes entry i of a normal-layout entry block: the inode it
// names, 0 for a free entry, and its name, aliasing buf.
func dirent(buf []byte, i int) (inode.Ino, []byte, error) {
	ent := buf[i*direntSize : (i+1)*direntSize]
	ino := inode.Ino(binary.LittleEndian.Uint64(ent[0:]))
	if ino == 0 {
		return 0, nil, nil
	}
	n := int(ent[8])
	if n > direntSize-9 {
		return ino, nil, fmt.Errorf("corrupt dirent name length %d", n)
	}
	return ino, ent[9 : 9+n], nil
}

// tableEntry decodes the directory-table entry of dirID: its parent and
// self inode numbers, self 0 for a free entry.
func (fs *FS) tableEntry(rd blockReader, dirID uint32) (parent, self inode.Ino, err error) {
	blk, off := fs.tableLocation(dirID)
	if blk >= fs.geo.TableStart+fs.geo.TableBlocks {
		return 0, 0, fmt.Errorf("mdfs: directory id %d outside table", dirID)
	}
	buf := rd.Read(blk)
	le := binary.LittleEndian
	return inode.Ino(le.Uint64(buf[off:])), inode.Ino(le.Uint64(buf[off+8:])), nil
}
