package ost

import (
	"math/bits"

	"redbud/internal/alloc"
)

// tagPageBits sets the tag store's page size: 1<<tagPageBits slots, 64 KiB.
const tagPageBits = 12

// tagPage is one fixed-size page of the tag store.
type tagPage [1 << tagPageBits]tagSlot

// tagStore maps physical block → data tag. Physical addresses are dense
// (the allocator hands out volume offsets bounded by cfg.Blocks), so the
// store is a table of fixed-size pages indexed by block: the per-block map
// assign/delete that dominated write-path CPU profiles becomes one table
// index and one slot write. A page is allocated on the first write into it
// and never moves; a missing page reads as empty, so blocks the allocator
// never hands out cost nothing. A slot is empty when logical1 == 0;
// occupied slots store logical+1 so a fresh page means "no tag" without
// initialization.
type tagStore struct {
	pages []*tagPage
}

// newTagStore returns a store whose page table covers blocks: the
// allocator never hands out a block beyond them.
func newTagStore(blocks int64) tagStore {
	return tagStore{pages: make([]*tagPage, (blocks+1<<tagPageBits-1)>>tagPageBits)}
}

// tagSlot is the stored form of one block's tag.
type tagSlot struct {
	obj      ObjectID
	logical1 int64 // logical+1; 0 = empty
}

// set records that phys carries obj's data for the given logical block.
func (ts *tagStore) set(phys int64, obj ObjectID, logical int64) {
	ts.setSlot(phys, tagSlot{obj: obj, logical1: logical + 1})
}

// get returns the tag stored at phys, if any.
func (ts *tagStore) get(phys int64) (tag, bool) {
	s := ts.slotAt(phys)
	if s.logical1 == 0 {
		return tag{}, false
	}
	return tag{obj: s.obj, logical: s.logical1 - 1}, true
}

// slotAt returns the raw slot stored at phys (zero value when no page
// holds it) — the pre-image a crash-armed write path records before set.
func (ts *tagStore) slotAt(phys int64) tagSlot {
	if phys < 0 || phys>>tagPageBits >= int64(len(ts.pages)) {
		return tagSlot{}
	}
	if p := ts.pages[phys>>tagPageBits]; p != nil {
		return p[phys&(1<<tagPageBits-1)]
	}
	return tagSlot{}
}

// setSlot stores a raw slot at phys — the pre-image restore of a
// power-fail undo — allocating its page on first use.
func (ts *tagStore) setSlot(phys int64, s tagSlot) {
	p := ts.pages[phys>>tagPageBits]
	if p == nil {
		p = new(tagPage)
		ts.pages[phys>>tagPageBits] = p
	}
	p[phys&(1<<tagPageBits-1)] = s
}

// clearRange drops the tags of every block in [start, end), skipping
// pages that were never allocated.
func (ts *tagStore) clearRange(start, end int64) {
	start = max(start, 0)
	end = min(end, int64(len(ts.pages))<<tagPageBits)
	for start < end {
		pg := start >> tagPageBits
		next := min((pg+1)<<tagPageBits, end)
		if p := ts.pages[pg]; p != nil {
			clear(p[start&(1<<tagPageBits-1) : (next-1)&(1<<tagPageBits-1)+1])
		}
		start = next
	}
}

// blockSet is a grow-on-demand bitmap over logical block addresses — the
// per-object "carries data" set. It replaces a map[int64]bool whose
// per-block assigns showed up in profiles; runs come back sorted for free.
type blockSet struct {
	words []uint64
	count int64
}

// setRange marks blocks [start, start+count) as present.
func (b *blockSet) setRange(start, count int64) {
	for i := start; i < start+count; i++ {
		b.set(i)
	}
}

// set marks block i as present.
func (b *blockSet) set(i int64) {
	w := i >> 6
	if w >= int64(len(b.words)) {
		b.growWords(w + 1)
	}
	mask := uint64(1) << uint(i&63)
	if b.words[w]&mask == 0 {
		b.words[w] |= mask
		b.count++
	}
}

// clear removes block i — the power-fail undo of set, and the scrub's
// "this block never carried its data" demotion.
func (b *blockSet) clear(i int64) {
	w := i >> 6
	if i < 0 || w >= int64(len(b.words)) {
		return
	}
	mask := uint64(1) << uint(i&63)
	if b.words[w]&mask != 0 {
		b.words[w] &^= mask
		b.count--
	}
}

// has reports whether block i is present.
func (b *blockSet) has(i int64) bool {
	w := i >> 6
	if i < 0 || w >= int64(len(b.words)) {
		return false
	}
	return b.words[w]&(uint64(1)<<uint(i&63)) != 0
}

// clearFrom removes every block at or beyond start (the truncate shape).
func (b *blockSet) clearFrom(start int64) {
	if start < 0 {
		start = 0
	}
	w := start >> 6
	if w >= int64(len(b.words)) {
		return
	}
	keep := b.words[w] & (uint64(1)<<uint(start&63) - 1)
	b.count -= int64(bits.OnesCount64(b.words[w] &^ keep))
	b.words[w] = keep
	for j := w + 1; j < int64(len(b.words)); j++ {
		b.count -= int64(bits.OnesCount64(b.words[j]))
		b.words[j] = 0
	}
}

// len returns the number of present blocks.
func (b *blockSet) len() int64 { return b.count }

// appendRuns appends the maximal runs of present blocks to dst, sorted by
// address.
func (b *blockSet) appendRuns(dst []alloc.Range) []alloc.Range {
	for w, word := range b.words {
		for word != 0 {
			bit := int64(bits.TrailingZeros64(word))
			l := int64(w)<<6 + bit
			word &^= uint64(1) << uint(bit)
			if n := len(dst); n > 0 && dst[n-1].End() == l {
				dst[n-1].Count++
			} else {
				dst = append(dst, alloc.Range{Start: l, Count: 1})
			}
		}
	}
	return dst
}

// growWords extends the bitmap to cover n words.
func (b *blockSet) growWords(n int64) {
	if n <= int64(cap(b.words)) {
		b.words = b.words[:n]
		return
	}
	c := 2 * int64(cap(b.words))
	if c < n {
		c = n
	}
	nw := make([]uint64, n, c)
	copy(nw, b.words)
	b.words = nw
}
