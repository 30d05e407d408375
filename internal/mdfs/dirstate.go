package mdfs

import (
	"fmt"
	"math/bits"

	"redbud/internal/inode"
)

// This file holds the in-memory directory bookkeeping both layouts share.
// Nothing here scans a directory per operation: the host cost of a create,
// unlink or rename does not depend on the directory's size.

// entry is what the namespace index keeps per name.
type entry struct {
	ino inode.Ino
	// slot is the dirent index in the normal layout (block*perBlock + i);
	// the embedded layout's slot is part of the inode number.
	slot int32
	// pos is the name's position in nameIndex.order.
	pos int32
}

// nameIndex is a directory's namespace: the name → entry index (the
// paper's in-memory Htree/Btree analogue) plus the insertion order readdir
// reports. Removal leaves a tombstone in order — the empty string — and
// the list is compacted before a removal whose tombstone would outnumber
// the live names, so add and remove are O(1) amortized and insertion order
// is preserved exactly. Because compaction runs before the tombstone goes
// in, a removal is undone by restoring its entry in place (restore), and
// an addition by dropping the last name (unadd).
type nameIndex struct {
	byName map[string]entry
	order  []string
	dead   int // tombstones in order
}

// newNameIndex returns an empty index with room for hint names.
func newNameIndex(hint int) nameIndex {
	hint = max(hint, 0)
	return nameIndex{byName: make(map[string]entry, hint), order: make([]string, 0, hint)}
}

// len returns the number of live names.
func (n *nameIndex) len() int { return len(n.byName) }

// add appends a name to the insertion order. A name already present — two
// dirents with one name, possible only on a damaged image — is replaced,
// so order never lists a name twice.
func (n *nameIndex) add(name string, ino inode.Ino, slot int) {
	n.remove(name)
	n.byName[name] = entry{ino: ino, slot: int32(slot), pos: int32(len(n.order))}
	n.order = append(n.order, name)
}

// remove drops a name, reporting the entry it had — its position as of
// the compaction this removal may run first.
func (n *nameIndex) remove(name string) (entry, bool) {
	e, ok := n.byName[name]
	if !ok {
		return entry{}, false
	}
	if (n.dead+1)*2 > len(n.order) {
		n.compact()
		e = n.byName[name]
	}
	delete(n.byName, name)
	n.order[e.pos] = ""
	n.dead++
	return e, true
}

// restore undoes the removal of name, which had entry e: its tombstone
// becomes the name again. Nothing may have compacted the index since —
// an operation removes at most one name from a directory.
func (n *nameIndex) restore(name string, e entry) {
	if int(e.pos) >= len(n.order) || n.live(int(e.pos)) {
		panic(fmt.Sprintf("mdfs: restoring %q: position %d is not its tombstone", name, e.pos))
	}
	n.order[e.pos] = name
	n.byName[name] = e
	n.dead--
}

// unadd undoes the latest add and returns the entry it made.
func (n *nameIndex) unadd() entry {
	name := n.order[len(n.order)-1]
	e := n.byName[name]
	delete(n.byName, name)
	n.order[len(n.order)-1] = ""
	n.order = n.order[:len(n.order)-1]
	return e
}

// live reports whether order[i] is a current name rather than a tombstone.
// The empty string is itself a legal name, so an empty slot is live when
// the index says that is where the empty name sits.
func (n *nameIndex) live(i int) bool {
	if n.order[i] != "" {
		return true
	}
	e, ok := n.byName[""]
	return ok && int(e.pos) == i
}

// compact squeezes the tombstones out of order and renumbers the survivors.
func (n *nameIndex) compact() {
	kept := 0
	for i, name := range n.order {
		if !n.live(i) {
			continue
		}
		e := n.byName[name]
		e.pos = int32(kept)
		n.byName[name] = e
		n.order[kept] = name
		kept++
	}
	for i := kept; i < len(n.order); i++ {
		n.order[i] = "" // drop the string references
	}
	n.order = n.order[:kept]
	n.dead = 0
}

// names returns the live names in insertion order.
func (n *nameIndex) names() []string {
	if n.len() == 0 {
		return nil // an empty directory lists as nil, not as an empty slice
	}
	out := make([]string, 0, n.len())
	for i, name := range n.order {
		if n.live(i) {
			out = append(out, name)
		}
	}
	return out
}

// slotBitmap records which dirent slots of a normal-layout directory hold
// an entry: bit i set means slot i is in use.
type slotBitmap struct {
	words []uint64
	// low is a lower bound on the first word with a clear bit, so a
	// directory filled front to back finds its next slot without rescanning
	// the full words before it.
	low int
}

// lowestClear returns the lowest unused slot below limit, or -1 when slots
// [0, limit) are all in use.
func (b *slotBitmap) lowestClear(limit int) int {
	w := b.low
	for w < len(b.words) && b.words[w] == ^uint64(0) {
		w++
	}
	b.low = w
	i := w * 64 // slots past the last word have never been set
	if w < len(b.words) {
		i += bits.TrailingZeros64(^b.words[w])
	}
	if i < limit {
		return i
	}
	return -1
}

// set marks slot i in use, growing the bitmap as the directory grows.
func (b *slotBitmap) set(i int) {
	for i/64 >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[i/64] |= 1 << uint(i%64)
}

// clear marks slot i unused.
func (b *slotBitmap) clear(i int) {
	b.words[i/64] &^= 1 << uint(i%64)
	if i/64 < b.low {
		b.low = i / 64
	}
}
