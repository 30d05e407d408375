package mdfs

import (
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/inode"
)

// An operation commits or leaves no trace. Every mutating operation ends
// in finishOp, and a failed one is rewound to its savepoint — the state
// the previous operation left — in two halves: the store puts the blocks
// back, and the undo log below puts back the state that does not live in
// blocks. Each piece of that state changes in one place, and that place
// appends one entry; rewind applies the entries newest first. Entries are
// plain values in a slice the FS reuses, so an operation that does not
// fail allocates nothing for them.

// undoKind names what an undo entry takes back.
type undoKind uint8

const (
	undoAlloc       undoKind = iota // run [a, a+b) was allocated
	undoFree                        // run [a, a+b) was freed
	undoInodeAlloc                  // inode slot a was taken
	undoInodeFree                   // inode slot a was freed
	undoNameAdd                     // a name was added to d, the last in its order
	undoNameRemove                  // name was removed from d; a and b hold its entry
	undoDirentBlock                 // d gained an entry block
	undoSlotNext                    // d handed out its next embedded slot
	undoSlotReuse                   // d handed out free embedded slot a
	undoSlotFree                    // d freed an embedded slot
	undoContent                     // d's content had a runs, the last b blocks long
	undoExtentUnits                 // d's extentUnits was a
	undoDirAdd                      // d was created
	undoDirRemove                   // d was removed
	undoDirMove                     // d was renumbered: it was inode a, under parent b
	undoRenamed                     // renamed[a] was b (0: absent)
	undoNextDir                     // nextDir was a
)

// undo is one entry of the undo log: what changed, the directory it
// changed in, and up to a name and two values, as the kinds list. It is
// kept small because every operation appends a few.
type undo struct {
	kind undoKind
	d    *dir
	name string
	a, b int64
}

// log appends an undo entry.
func (fs *FS) log(u undo) { fs.undo = append(fs.undo, u) }

// finishOp is the one commit-or-abort point of every mutating operation.
// An operation that failed (err != nil), or whose commit failed, is
// rewound to its savepoint; it does not count toward the commit batch, but
// its OpStats and the reads it charged stay — they happened. One that
// succeeded commits according to the sync policy and becomes the next
// operation's savepoint.
func (fs *FS) finishOp(err error) error {
	commit := fs.cfg.SyncWrites || fs.sinceSync+1 >= fs.cfg.CommitEvery
	if err == nil && commit {
		err = fs.store.Commit()
	}
	if err != nil {
		fs.rewind()
		fs.store.Abort()
		return err
	}
	fs.dropUndo()
	if commit {
		fs.sinceSync = 0
	} else {
		fs.sinceSync++
		fs.store.savepoint()
	}
	return nil
}

// dropUndo empties the undo log: what it covered can no longer be rewound.
func (fs *FS) dropUndo() {
	clear(fs.undo)
	fs.undo = fs.undo[:0]
}

// rewind applies the undo log newest first and empties it.
func (fs *FS) rewind() {
	for i := len(fs.undo) - 1; i >= 0; i-- {
		u := &fs.undo[i]
		d := u.d
		switch u.kind {
		case undoAlloc:
			mustUndo(fs.alloc.Free(alloc.Range{Start: u.a, Count: u.b}))
		case undoFree:
			mustUndo(fs.alloc.AllocExact(0, alloc.Range{Start: u.a, Count: u.b}))
		case undoInodeAlloc:
			fs.setInodeBit(u.a, false)
		case undoInodeFree:
			fs.setInodeBit(u.a, true)
		case undoNameAdd:
			e := d.names.unadd()
			if fs.cfg.Layout == LayoutNormal {
				d.slots.clear(int(e.slot))
			}
		case undoNameRemove:
			e := entry{ino: inode.Ino(u.a), slot: int32(u.b >> 32), pos: int32(u.b)}
			d.names.restore(u.name, e)
			if fs.cfg.Layout == LayoutNormal {
				d.slots.set(int(e.slot))
			}
		case undoDirentBlock:
			d.direntBlocks = d.direntBlocks[:len(d.direntBlocks)-1]
			last := len(d.direntMap) - 1
			if d.direntMap[last].Count--; d.direntMap[last].Count == 0 {
				d.direntMap = d.direntMap[:last]
			}
		case undoSlotNext:
			d.nextSlot--
		case undoSlotReuse:
			d.freeSlots = append(d.freeSlots, uint32(u.a))
		case undoSlotFree:
			d.freeSlots = d.freeSlots[:len(d.freeSlots)-1]
		case undoContent:
			d.content = d.content[:u.a]
			if u.a > 0 {
				d.content[u.a-1].Count = u.b // growth only ever extends the last run
			}
		case undoExtentUnits:
			d.extentUnits = u.a
		case undoDirAdd:
			delete(fs.dirs, d.ino)
			if fs.cfg.Layout == LayoutEmbedded {
				delete(fs.dirsByID, d.dirID)
			}
		case undoDirRemove:
			fs.dirs[d.ino] = d
			if fs.cfg.Layout == LayoutEmbedded {
				fs.dirsByID[d.dirID] = d
			}
		case undoDirMove:
			// The record sits in the slot the old number names, in a
			// source directory this rewind has already restored.
			delete(fs.dirs, d.ino)
			d.ino, d.parent = inode.Ino(u.a), inode.Ino(u.b)
			_, blk, off, err := fs.embLocate(d.ino)
			mustUndo(err)
			d.recBlock, d.recOff = blk, off
			fs.dirs[d.ino] = d
		case undoRenamed:
			if u.b == 0 {
				delete(fs.renamed, inode.Ino(u.a))
			} else {
				fs.renamed[inode.Ino(u.a)] = inode.Ino(u.b)
			}
		case undoNextDir:
			fs.nextDir = uint32(u.a)
		}
	}
	fs.dropUndo()
}

// mustUndo panics when taking back an allocator change fails: the log
// only ever inverts a change that was made, so failure is a bug.
func mustUndo(err error) {
	if err != nil {
		panic(fmt.Sprintf("mdfs: rewinding an operation: %v", err))
	}
}

// addDir makes d reachable by number (and, embedded, by directory id).
func (fs *FS) addDir(d *dir) {
	fs.dirs[d.ino] = d
	if fs.cfg.Layout == LayoutEmbedded {
		fs.dirsByID[d.dirID] = d
	}
	fs.log(undo{kind: undoDirAdd, d: d})
}

// removeDir forgets the removed directory d.
func (fs *FS) removeDir(d *dir) {
	delete(fs.dirs, d.ino)
	if fs.cfg.Layout == LayoutEmbedded {
		delete(fs.dirsByID, d.dirID)
	}
	fs.log(undo{kind: undoDirRemove, d: d})
}

// takeDirID hands out the next directory identification.
func (fs *FS) takeDirID() uint32 {
	fs.log(undo{kind: undoNextDir, a: int64(fs.nextDir)})
	id := fs.nextDir
	fs.nextDir++
	return id
}

// addName indexes name in d; slot is its dirent in the normal layout.
func (fs *FS) addName(d *dir, name string, ino inode.Ino, slot int) {
	d.names.add(name, ino, slot)
	fs.log(undo{kind: undoNameAdd, d: d})
}

// removeName drops name from d's index, returning the entry it had.
func (fs *FS) removeName(d *dir, name string) (entry, bool) {
	e, ok := d.names.remove(name)
	if ok {
		fs.log(undo{kind: undoNameRemove, d: d, name: name, a: int64(e.ino), b: int64(e.slot)<<32 | int64(uint32(e.pos))})
	}
	return e, ok
}

// addExtentUnits moves d's fragmentation-degree numerator by delta,
// never below zero.
func (fs *FS) addExtentUnits(d *dir, delta int64) {
	fs.log(undo{kind: undoExtentUnits, d: d, a: d.extentUnits})
	d.extentUnits = max(d.extentUnits+delta, 0)
}
