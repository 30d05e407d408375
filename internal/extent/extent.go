// Package extent implements the file layout mapping of a block-based
// parallel file system: the indirection from file logical block numbers to
// on-disk physical blocks, expressed as extents.
//
// Extent counts are the paper's fragmentation currency: Table I reports the
// "number of segments" (extents) each preallocation policy generates, and
// the MDS CPU model charges per extent operated on ("the less extents in
// the parallel file systems to be operated, such as merging and indexing,
// the less CPU load involved in MDS").
package extent

import (
	"fmt"
	"slices"
)

// Extent maps the logical block range [Logical, Logical+Count) of a file to
// the physical range [Physical, Physical+Count) of a device. This mirrors
// the Redbud layout element, a tuple of [file offset, group offset, length,
// flags].
type Extent struct {
	Logical  int64
	Physical int64
	Count    int64
	Flags    uint32
}

// Extent flags.
const (
	// FlagPrealloc marks blocks preallocated but not yet written
	// (unwritten extents in ext4 terms).
	FlagPrealloc uint32 = 1 << iota
)

// InlineSummary is the number of summary extents a file's MDS record keeps
// inline; it matches the inode tail capacity.
const InlineSummary = 4

// LogicalEnd returns the logical block just past the extent.
func (e Extent) LogicalEnd() int64 { return e.Logical + e.Count }

// PhysicalEnd returns the physical block just past the extent.
func (e Extent) PhysicalEnd() int64 { return e.Physical + e.Count }

// String renders the extent as [logical→physical,+count].
func (e Extent) String() string {
	return fmt.Sprintf("[%d→%d,+%d]", e.Logical, e.Physical, e.Count)
}

// contiguousWith reports whether o continues e both logically and
// physically with identical flags, i.e. the two can merge into one extent.
func (e Extent) contiguousWith(o Extent) bool {
	return e.LogicalEnd() == o.Logical && e.PhysicalEnd() == o.Physical && e.Flags == o.Flags
}

// chunkCap is the most extents one chunk of a Map holds, the head
// included. An insert shifts at most one chunk, so it costs O(log n) to
// find the chunk plus O(chunkCap) to make room, however many extents the
// map holds; one in chunkCap/2 of them or fewer also splits a chunk,
// which shifts the list of n/chunkCap chunk headers.
const chunkCap = 64

// Map is the extent map of one file (or of one stripe component of a file).
// Extents are kept sorted by logical block and non-overlapping; inserts that
// continue an existing extent merge into it. The zero value is an empty
// map, ready to use. Map is not safe for concurrent use; callers (the MDS)
// serialize access per file.
//
// The extents live in chunks, in logical order. Chunk 0, the head, is a
// slice grown by append, so a map of at most chunkCap extents is one flat
// slice and costs what a slice costs. An insert into a full chunk splits
// it in half; the upper half moves to a chunk carved from the map's slab, a
// block of chunks that grows with the map. A chunk emptied by a merge or a
// Delete goes back to the map's free list. No chunk but the head of an
// empty map is ever empty.
type Map struct {
	head []Extent // chunk 0
	more *chunks  // the chunks past the head; nil until the head first splits

	// inserts and merges count the mapping operations performed, feeding
	// the MDS CPU model.
	inserts int64
	merges  int64
}

// firstChunks is the number of chunks the first slab holds.
const firstChunks = 4

// chunks is what a map needs once it outgrows its head. The first slab
// and chunk list come with it, so the first split allocates once.
type chunks struct {
	rest [][]Extent // chunks 1.., each of capacity chunkCap
	slab []Extent   // not yet carved
	free [][]Extent // emptied chunks, reused before the slab
	n    int        // extents in all chunks, the head's included

	firstSlab [firstChunks * chunkCap]Extent
	firstRest [firstChunks][]Extent
}

// Len returns the number of extents — the paper's "segment count".
func (m *Map) Len() int {
	if m.more == nil {
		return len(m.head)
	}
	return m.more.n
}

// count records d extents added to the map, or removed when negative.
func (m *Map) count(d int) {
	if m.more != nil {
		m.more.n += d
	}
}

// Ops returns the cumulative insert and merge operation counts.
func (m *Map) Ops() (inserts, merges int64) { return m.inserts, m.merges }

// chunks returns the number of chunks, the head included.
func (m *Map) chunks() int {
	if m.more == nil {
		return 1
	}
	return 1 + len(m.more.rest)
}

// chunk returns chunk c for reading and writing in place.
func (m *Map) chunk(c int) *[]Extent {
	if c == 0 {
		return &m.head
	}
	return &m.more.rest[c-1]
}

// Extents returns a copy of the extents in logical order.
func (m *Map) Extents() []Extent {
	out := make([]Extent, m.Len())
	off := 0
	for c := 0; c < m.chunks(); c++ {
		off += copy(out[off:], *m.chunk(c))
	}
	return out
}

// search returns the position of the first extent with LogicalEnd >
// logical: chunk c and index i within it. Past the last extent it returns
// the last chunk and its length.
func (m *Map) search(logical int64) (c, i int) {
	ch := m.head
	if mc := m.more; mc != nil && len(mc.rest) > 0 && ch[len(ch)-1].LogicalEnd() <= logical {
		// The first chunk past the head whose last extent ends past
		// logical; the last chunk when none does, so it is never probed.
		lo, hi := 0, len(mc.rest)-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if r := mc.rest[mid]; r[len(r)-1].LogicalEnd() > logical {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c, ch = lo+1, mc.rest[lo]
	}
	j := len(ch)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ch[h].LogicalEnd() > logical {
			j = h
		} else {
			i = h + 1
		}
	}
	return c, i
}

// Insert adds e to the map, merging with logically-and-physically
// contiguous neighbours. Inserting a range that overlaps an existing
// mapping is an error: a file's logical blocks are mapped exactly once, and
// remapping without deletion indicates corruption.
func (m *Map) Insert(e Extent) error {
	if e.Count <= 0 || e.Logical < 0 || e.Physical < 0 {
		return fmt.Errorf("extent: invalid insert %v", e)
	}
	c, i := m.search(e.Logical)
	ch := *m.chunk(c)
	if i < len(ch) && ch[i].Logical < e.LogicalEnd() {
		return fmt.Errorf("extent: insert %v overlaps %v", e, ch[i])
	}
	m.inserts++
	// Try merging with the predecessor and/or successor; the predecessor
	// of a chunk's first extent is the previous chunk's last.
	var prev *Extent
	if i > 0 {
		prev = &ch[i-1]
	} else if c > 0 {
		pc := *m.chunk(c - 1)
		prev = &pc[len(pc)-1]
	}
	mergedPrev := prev != nil && prev.contiguousWith(e)
	mergedNext := i < len(ch) && e.contiguousWith(ch[i])
	switch {
	case mergedPrev && mergedNext:
		prev.Count += e.Count + ch[i].Count
		m.removeAt(c, i)
		m.merges += 2
	case mergedPrev:
		prev.Count += e.Count
		m.merges++
	case mergedNext:
		ch[i].Logical = e.Logical
		ch[i].Physical = e.Physical
		ch[i].Count += e.Count
		m.merges++
	default:
		m.insertAt(c, i, e)
	}
	return nil
}

// insertAt puts e at index i of chunk c, first splitting the chunk in half
// when it is full.
func (m *Map) insertAt(c, i int, e Extent) {
	if len(*m.chunk(c)) == chunkCap {
		m.split(c)
		if lower := len(*m.chunk(c)); i > lower {
			c, i = c+1, i-lower
		}
	}
	ch := m.chunk(c)
	*ch = append(*ch, Extent{})
	copy((*ch)[i+1:], (*ch)[i:])
	(*ch)[i] = e
	m.count(1)
}

// split moves the upper half of chunk c into a new chunk c+1.
func (m *Map) split(c int) {
	upper := m.carve() // first: it may move the chunk list
	ch := m.chunk(c)
	half := len(*ch) / 2
	upper = append(upper, (*ch)[half:]...)
	*ch = (*ch)[:half]
	m.more.rest = slices.Insert(m.more.rest, c, upper)
}

// carve returns an empty chunk: an emptied one if any, else the next of
// the slab. The first call sets up the chunks past the head with the first
// slab; a later exhausted slab is replaced by one of twice as many chunks
// as the map has, and the chunk list grows to fit them in the same step,
// so the list never grows on its own.
func (m *Map) carve() []Extent {
	if m.more == nil {
		m.more = &chunks{n: len(m.head)}
		m.more.slab = m.more.firstSlab[:]
		m.more.rest = m.more.firstRest[:0]
	}
	mc := m.more
	if n := len(mc.free); n > 0 {
		ch := mc.free[n-1]
		mc.free = mc.free[:n-1]
		return ch
	}
	if len(mc.slab) == 0 {
		k := 2 * m.chunks()
		mc.slab = make([]Extent, k*chunkCap)
		mc.rest = slices.Grow(mc.rest, k)
	}
	ch := mc.slab[:0:chunkCap]
	mc.slab = mc.slab[chunkCap:]
	return ch
}

// removeAt deletes index i of chunk c, dropping the chunk if that empties
// it and it is not the only one.
func (m *Map) removeAt(c, i int) {
	ch := m.chunk(c)
	*ch = append((*ch)[:i], (*ch)[i+1:]...)
	m.count(-1)
	if len(*ch) == 0 {
		m.drop(c)
	}
}

// drop removes the empty chunk c unless it is the only chunk, recycling
// its storage. The head's own slice is recycled too when it has a chunk's
// capacity; a dropped head is replaced by chunk 1.
func (m *Map) drop(c int) {
	if m.chunks() == 1 {
		return
	}
	mc := m.more
	if ch := *m.chunk(c); cap(ch) == chunkCap {
		mc.free = append(mc.free, ch[:0])
	}
	if c == 0 {
		m.head = mc.rest[0]
		c = 1
	}
	mc.rest = append(mc.rest[:c-1], mc.rest[c:]...)
}

// Lookup resolves one logical block to its physical block.
func (m *Map) Lookup(logical int64) (physical int64, ok bool) {
	c, i := m.search(logical)
	if ch := *m.chunk(c); i < len(ch) && ch[i].Logical <= logical {
		return ch[i].Physical + (logical - ch[i].Logical), true
	}
	return 0, false
}

// LookupRange resolves the logical range [logical, logical+count) into the
// physical extents covering it, clipped to the range. Unmapped gaps (holes)
// are skipped; callers that need hole detection compare the covered length.
func (m *Map) LookupRange(logical, count int64) []Extent {
	return m.AppendRange(nil, logical, count)
}

// AppendRange is LookupRange appending into dst, so per-lookup hot paths
// (every block write and read resolves a range) can reuse one scratch slice
// instead of allocating per call. It returns the extended slice; dst[:0]
// reuse is safe as long as the previous result is no longer referenced.
func (m *Map) AppendRange(dst []Extent, logical, count int64) []Extent {
	end := logical + count
	c, i := m.search(logical)
	for ; c < m.chunks(); c, i = c+1, 0 {
		ch := *m.chunk(c)
		for ; i < len(ch); i++ {
			e := ch[i]
			if e.Logical >= end {
				return dst
			}
			lo, hi := e.Logical, e.LogicalEnd()
			if lo < logical {
				lo = logical
			}
			if hi > end {
				hi = end
			}
			dst = append(dst, Extent{
				Logical:  lo,
				Physical: e.Physical + (lo - e.Logical),
				Count:    hi - lo,
				Flags:    e.Flags,
			})
		}
	}
	return dst
}

// NextAt returns the first mapped piece at or after logical: the extent
// covering logical clipped to start there, or, when logical falls in a
// hole, the first whole extent beyond it. ok is false when nothing is
// mapped at or after logical. The defrag mover walks an object with it,
// one migration slice at a time, without copying the whole extent list.
func (m *Map) NextAt(logical int64) (Extent, bool) {
	c, i := m.search(logical)
	ch := *m.chunk(c)
	if i >= len(ch) {
		return Extent{}, false
	}
	e := ch[i]
	if e.Logical < logical {
		off := logical - e.Logical
		e = Extent{Logical: logical, Physical: e.Physical + off, Count: e.Count - off, Flags: e.Flags}
	}
	return e, true
}

// Delete removes the mapping of the logical range [logical, logical+count),
// splitting extents that straddle the boundary, and returns the physical
// ranges released so the caller can free them.
func (m *Map) Delete(logical, count int64) []Extent {
	if count <= 0 {
		return nil
	}
	removed := m.LookupRange(logical, count)
	if len(removed) == 0 {
		return nil
	}
	end := logical + count
	c, i := m.search(logical)
	if e := (*m.chunk(c))[i]; e.Logical < logical && e.LogicalEnd() > end {
		// A hole punched inside one extent: its head stays where it is and
		// its tail follows it.
		(*m.chunk(c))[i].Count = logical - e.Logical
		off := end - e.Logical
		m.insertAt(c, i+1, Extent{Logical: end, Physical: e.Physical + off, Count: e.Count - off, Flags: e.Flags})
		return removed
	}
	// Otherwise each extent the range touches leaves at most one piece, so
	// one pass compacts the touched chunks in place.
	for c < m.chunks() {
		ch := m.chunk(c)
		w := i
		for ; i < len(*ch) && (*ch)[i].Logical < end; i++ {
			e := (*ch)[i]
			switch {
			case e.Logical < logical:
				(*ch)[w] = Extent{Logical: e.Logical, Physical: e.Physical, Count: logical - e.Logical, Flags: e.Flags}
				w++
			case e.LogicalEnd() > end:
				off := end - e.Logical
				(*ch)[w] = Extent{Logical: end, Physical: e.Physical + off, Count: e.Count - off, Flags: e.Flags}
				w++
			}
		}
		onward := i == len(*ch) // the range may go on into the next chunk
		kept := w + copy((*ch)[w:], (*ch)[i:])
		m.count(kept - len(*ch))
		*ch = (*ch)[:kept]
		if kept == 0 && m.chunks() > 1 {
			m.drop(c)
		} else {
			c++
		}
		if !onward {
			break
		}
		i = 0
	}
	return removed
}

// MappedBlocks returns the total number of mapped logical blocks.
func (m *Map) MappedBlocks() int64 {
	var n int64
	for c := 0; c < m.chunks(); c++ {
		for _, e := range *m.chunk(c) {
			n += e.Count
		}
	}
	return n
}

// LastPhysical returns the physical block just past the extent with the
// highest logical address — the "last non-hole block" that reservation
// preallocation uses as its goal. ok is false for an empty map.
func (m *Map) LastPhysical() (physical int64, ok bool) {
	if m.Len() == 0 {
		return 0, false
	}
	ch := *m.chunk(m.chunks() - 1)
	return ch[len(ch)-1].PhysicalEnd(), true
}

// Validate checks the structural invariants: sorted, non-overlapping,
// positive counts, and no unmerged contiguous neighbours; and of the
// chunks: none empty but the head of an empty map, none past its
// capacity, and Len equal to their total. Tests and the property suite
// call it after every mutation sequence.
func (m *Map) Validate() error {
	var prev *Extent
	total := 0
	for c := 0; c < m.chunks(); c++ {
		ch := *m.chunk(c)
		if len(ch) == 0 && m.chunks() > 1 {
			return fmt.Errorf("extent: chunk %d of %d is empty", c, m.chunks())
		}
		if len(ch) > chunkCap {
			return fmt.Errorf("extent: chunk %d holds %d extents, capacity %d", c, len(ch), chunkCap)
		}
		total += len(ch)
		for j := range ch {
			e := &ch[j]
			if e.Count <= 0 {
				return fmt.Errorf("extent: non-positive count in %v", *e)
			}
			if prev != nil {
				if prev.LogicalEnd() > e.Logical {
					return fmt.Errorf("extent: overlap %v then %v", *prev, *e)
				}
				if prev.contiguousWith(*e) {
					return fmt.Errorf("extent: unmerged neighbours %v then %v", *prev, *e)
				}
			}
			prev = e
		}
	}
	if total != m.Len() {
		return fmt.Errorf("extent: Len %d, chunks hold %d", m.Len(), total)
	}
	return nil
}
