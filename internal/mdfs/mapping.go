package mdfs

import (
	"encoding/binary"

	"redbud/internal/alloc"
	"redbud/internal/extent"
	"redbud/internal/inode"
)

// Layout mappings are stored as the paper describes: the head "stuffed
// into the tail of file inode", the overflow in spill blocks placed next
// to the inode's directory content. The inode's two spill pointers are the
// first links of a chain — each spill block carries a next pointer — so a
// severely fragmented file's mapping can grow without bound, the way an
// extent tree would.
//
// Spill block layout: count uint32, next int64, then count × 32-byte
// extents.

// extentBytes is the serialized size of one layout-mapping unit.
const extentBytes = 32

// spillHeader is the spill block header size: count plus next pointer.
const spillHeader = 12

// extentsPerSpill is the number of mapping units one spill block holds.
func (fs *FS) extentsPerSpill() int { return (int(fs.cfg.BlockSize) - spillHeader) / extentBytes }

// maxMappingUnits reports the capacity of the inline area plus one full
// spill chain link per slot; the chain extension makes the true capacity
// unbounded, so this is only the threshold above which chains grow.
func (fs *FS) maxMappingUnits() int {
	return inode.InlineExtents + inode.SpillSlots*fs.extentsPerSpill()
}

// encodeExtent serializes one mapping unit.
func encodeExtent(buf []byte, e extent.Extent) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(e.Logical))
	le.PutUint64(buf[8:], uint64(e.Physical))
	le.PutUint64(buf[16:], uint64(e.Count))
	le.PutUint32(buf[24:], e.Flags)
}

// decodeExtent parses one mapping unit.
func decodeExtent(buf []byte) extent.Extent {
	le := binary.LittleEndian
	return extent.Extent{
		Logical:  int64(le.Uint64(buf[0:])),
		Physical: int64(le.Uint64(buf[8:])),
		Count:    int64(le.Uint64(buf[16:])),
		Flags:    le.Uint32(buf[24:]),
	}
}

// writeMapping stores a layout mapping into the record: the head inline,
// the overflow in the spill chain. spillGoal hints where new spill blocks
// should land — the directory content end (embedded) or the group's data
// area (normal). Surplus chain links of a shrinking mapping are freed. It
// returns the spill blocks it allocated.
func (fs *FS) writeMapping(rec *inode.Inode, exts []extent.Extent, spillGoal int64) ([]alloc.Range, error) {
	n := len(exts)
	if n > inode.InlineExtents {
		n = inode.InlineExtents
	}
	rec.Inline = append([]extent.Extent(nil), exts[:n]...)
	rec.ExtentCount = uint32(len(exts))
	rest := exts[n:]

	perSpill := fs.extentsPerSpill()
	needed := (len(rest) + perSpill - 1) / perSpill
	chain := fs.spillChain(fs.store, rec)
	var allocated []alloc.Range
	// Grow the chain as needed, each link near the goal (or the previous
	// link, keeping the chain physically clustered).
	goal := spillGoal
	if len(chain) > 0 {
		goal = chain[len(chain)-1] + 1
	}
	for len(chain) < needed {
		runs, err := fs.allocData(goal, 1)
		if err != nil {
			return allocated, err
		}
		chain = append(chain, runs[0].Start)
		allocated = append(allocated, runs[0])
		goal = runs[0].Start + 1
	}
	// Free surplus links.
	for _, blk := range chain[needed:] {
		if err := fs.freeData(alloc.Range{Start: blk, Count: 1}); err != nil {
			return allocated, err
		}
	}
	chain = chain[:needed]
	// Write the chain contents.
	for i, blk := range chain {
		chunk := rest[i*perSpill:]
		if len(chunk) > perSpill {
			chunk = chunk[:perSpill]
		}
		next := int64(0)
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		buf := make([]byte, fs.cfg.BlockSize)
		le := binary.LittleEndian
		le.PutUint32(buf[0:], uint32(len(chunk)))
		le.PutUint64(buf[4:], uint64(next))
		for j, e := range chunk {
			encodeExtent(buf[spillHeader+j*extentBytes:], e)
		}
		fs.store.Write(blk, buf)
	}
	// The inode slots reference the first links; spillChain's seen-set
	// keeps the uniform chain[i]→chain[i+1] linking unambiguous even
	// though the second link is reachable both from its slot and from
	// the first link's next pointer.
	rec.Spill = [inode.SpillSlots]int64{}
	for i := 0; i < inode.SpillSlots && i < len(chain); i++ {
		rec.Spill[i] = chain[i]
	}
	return allocated, nil
}

// freeSpill releases the record's whole spill chain.
func (fs *FS) freeSpill(rec *inode.Inode) error {
	for _, blk := range fs.spillChain(fs.store, rec) {
		if err := fs.freeData(alloc.Range{Start: blk, Count: 1}); err != nil {
			return err
		}
	}
	rec.Spill = [inode.SpillSlots]int64{}
	return nil
}

// runsToExtents converts allocation runs to a logical mapping starting at
// logical block 0 — the form directory content is recorded in.
func runsToExtents(runs []alloc.Range) []extent.Extent {
	var out []extent.Extent
	var logical int64
	for _, r := range runs {
		out = append(out, extent.Extent{Logical: logical, Physical: r.Start, Count: r.Count})
		logical += r.Count
	}
	return out
}
