package mdfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"redbud/internal/alloc"
	"redbud/internal/inode"
)

// Image persistence: the metadata file system's durable state (home blocks
// plus committed-but-uncheckpointed journal records) serialized to a flat
// file, so tools like cmd/miffsck can operate on saved instances and
// sessions can resume across process restarts.
//
// Format (little endian):
//
//	magic   uint32  "MiFI"
//	version uint32
//	layout  uint32
//	blocks  int64   device size
//	blockSz int64
//	journal int64   journal region blocks
//	table   int64   directory table blocks
//	group   int64   group blocks
//	ipg     int64   inodes per group
//	nHome   int64   home entries, then nHome × (blockNo int64, data [blockSz]byte)
//	nJnl    int64   journal records, same encoding
const (
	imageMagic   = 0x4D694649 // "MiFI"
	imageVersion = 1
)

// SaveImage writes the durable state. The caller should Sync (or at least
// Commit) first if the running transaction must be included; uncommitted
// transaction state is — correctly — not part of a crash-consistent image.
func (fs *FS) SaveImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	hdr := make([]byte, 4+4+4)
	le.PutUint32(hdr[0:], imageMagic)
	le.PutUint32(hdr[4:], imageVersion)
	le.PutUint32(hdr[8:], uint32(fs.cfg.Layout))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, v := range []int64{fs.cfg.Blocks, fs.cfg.BlockSize, fs.cfg.JournalBlocks,
		fs.cfg.TableBlocks, fs.cfg.GroupBlocks, fs.cfg.InodesPerGroup} {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	// writeBlocks writes the blocks pick finds content for, in block order.
	writeBlocks := func(pick func(*blockState) []byte) error {
		var keys []int64
		fs.store.eachBlock(func(blk int64, st *blockState) {
			if pick(st) != nil {
				keys = append(keys, blk)
			}
		})
		if err := binary.Write(bw, le, int64(len(keys))); err != nil {
			return err
		}
		for _, k := range keys {
			if err := binary.Write(bw, le, k); err != nil {
				return err
			}
			if _, err := bw.Write(pick(fs.store.lookup(k))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeBlocks(func(st *blockState) []byte { return st.home }); err != nil {
		return err
	}
	// The journal's replayable records: serialize the dirty overlay,
	// which mirrors them (last-write-wins).
	if err := writeBlocks(func(st *blockState) []byte { return st.dirty }); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadImage builds a mounted file system from a saved image. The disk and
// cache state start cold, as after a reboot; the journal overlay is
// replayed and the namespace rebuilt by Remount. LoadImage reads r in
// small pieces and adds no buffering of its own: pass a file through a
// bufio.Reader.
func LoadImage(r io.Reader) (*FS, error) {
	le := binary.LittleEndian
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("mdfs: image header: %w", err)
	}
	if le.Uint32(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("mdfs: not an image (magic %#x)", le.Uint32(hdr[0:]))
	}
	if v := le.Uint32(hdr[4:]); v != imageVersion {
		return nil, fmt.Errorf("mdfs: unsupported image version %d", v)
	}
	layout := Layout(le.Uint32(hdr[8:]))
	if layout != LayoutNormal && layout != LayoutEmbedded {
		return nil, fmt.Errorf("mdfs: unknown image layout %d", layout)
	}
	cfg := DefaultConfig(layout)
	for _, p := range []*int64{&cfg.Blocks, &cfg.BlockSize, &cfg.JournalBlocks,
		&cfg.TableBlocks, &cfg.GroupBlocks, &cfg.InodesPerGroup} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, fmt.Errorf("mdfs: image geometry: %w", err)
		}
	}
	cfg.Disk.BlockSize = cfg.BlockSize
	if err := checkImageGeometry(cfg); err != nil {
		return nil, err
	}
	fs, err := newUnformatted(cfg)
	if err != nil {
		return nil, err
	}
	// readBlocks reads one block list, handing each block to set. The
	// blocks land in slabs of up to slabBlocks, each allocated when its
	// first block arrives, so a count the input does not back sizes
	// nothing; a block is a cap-limited slice of its slab, which the
	// store's free list may recycle like any other buffer.
	bs := int(cfg.BlockSize)
	var word [8]byte
	var slab []byte
	readBlocks := func(set func(st *blockState, buf []byte)) error {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return err
		}
		n := int64(le.Uint64(word[:]))
		if n < 0 || n > cfg.Blocks {
			return fmt.Errorf("mdfs: image block count %d out of range", n)
		}
		for i := int64(0); i < n; i++ {
			if _, err := io.ReadFull(r, word[:]); err != nil {
				return err
			}
			blk := int64(le.Uint64(word[:]))
			if blk < 0 || blk >= cfg.Blocks {
				return fmt.Errorf("mdfs: image block %d out of range", blk)
			}
			if len(slab) == 0 {
				slab = make([]byte, int(min(n-i, slabBlocks))*bs)
			}
			buf := slab[:bs:bs]
			slab = slab[bs:]
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			set(fs.store.state(blk), buf)
		}
		return nil
	}
	if err := readBlocks(func(st *blockState, buf []byte) { st.home = buf }); err != nil {
		return nil, fmt.Errorf("mdfs: image home blocks: %w", err)
	}
	if err := readBlocks(func(st *blockState, buf []byte) { st.dirty = buf }); err != nil {
		return nil, fmt.Errorf("mdfs: image journal overlay: %w", err)
	}
	// Rebuild the namespace, then the allocator from the reachable state.
	if err := fs.Remount(); err != nil {
		return nil, err
	}
	if _, err := fs.RebuildAllocator(); err != nil {
		return nil, err
	}
	return fs, nil
}

// slabBlocks is how many blocks LoadImage reads into one allocation.
const slabBlocks = 256

// maxImageBytes caps the device an image header may declare, Blocks ×
// BlockSize, and maxImageBlockSize one block. LoadImage sizes the
// allocator, the inode bitmaps and its block buffers by the header before
// it decodes a block, so an absurd header is an allocation no reader
// survives. The caps are four and sixteen times the largest in-tree
// geometry's: DefaultConfig's 2 GiB device of 4 KiB blocks.
const maxImageBytes, maxImageBlockSize = 4 << 31, 64 << 10

// checkImageGeometry rejects a header geometry before anything is sized
// by it: a negative field, a block or device past the caps, or one New
// rejects. Zero fields take New's defaults, as they do on load.
func checkImageGeometry(cfg Config) error {
	applyDefaults(&cfg)
	if min(cfg.Blocks, cfg.BlockSize, cfg.JournalBlocks, cfg.TableBlocks, cfg.GroupBlocks, cfg.InodesPerGroup) < 0 ||
		cfg.BlockSize > maxImageBlockSize || cfg.Blocks > maxImageBytes/cfg.BlockSize {
		return fmt.Errorf("mdfs: image geometry out of range (%d blocks of %d bytes; caps %d-byte device, %d-byte block)",
			cfg.Blocks, cfg.BlockSize, int64(maxImageBytes), maxImageBlockSize)
	}
	_, err := computeGeometry(cfg)
	return err
}

// RebuildAllocator reconstructs the space allocator from the reachable
// metadata: the fixed regions are re-reserved, then the mounted namespace
// is walked and every reachable dynamic block — directory content, entry
// blocks, spill blocks — re-marked. The namespace must be current
// (Remount first). It returns the number of blocks reclaimed relative to
// the previous allocator state: after a crash the in-memory allocator
// still charges blocks whose linking operations the journal lost, and
// those must be returned to free space (the mdfs analogue of the OST
// scrub's leak reclamation) or fsck's reverse pass would report them
// leaked forever.
func (fs *FS) RebuildAllocator() (reclaimed int64, err error) {
	prev := fs.cfg.Blocks - fs.alloc.FreeBlocks()
	old := fs.alloc
	fs.alloc = alloc.New(fs.cfg.Blocks, fs.cfg.GroupBlocks)
	if err := fs.reserveFixed(); err != nil {
		fs.alloc = old
		return 0, err
	}
	if err := fs.markReachable(); err != nil {
		fs.alloc = old
		return 0, err
	}
	return prev - (fs.cfg.Blocks - fs.alloc.FreeBlocks()), nil
}

// markReachable walks the mounted namespace and marks every reachable
// dynamic block in the allocator. Only the records' spill pointers matter
// here, so they decode into one scratch inode without their names, and
// their chains into one scratch list.
func (fs *FS) markReachable() error {
	mark := func(blk int64) error {
		if blk < 0 || blk >= fs.cfg.Blocks {
			return nil
		}
		r := alloc.Range{Start: blk, Count: 1}
		if fs.alloc.Allocated(r) {
			return nil
		}
		return fs.alloc.AllocExact(0, r)
	}
	var rec inode.Inode
	var chain []int64
	// markSpill marks the spill chain of the record at (blk, off); a
	// record that does not decode owns none.
	markSpill := func(blk int64, off int) error {
		buf, err := fs.recordAt(fs.store, blk, off)
		if err != nil || rec.UnmarshalFields(buf) != nil {
			return nil
		}
		chain = fs.spillChain(fs.store, &rec, chain[:0])
		for _, spill := range chain {
			if err := mark(spill); err != nil {
				return err
			}
		}
		return nil
	}
	seen := make(map[*dir]bool)
	var walk func(d *dir) error
	walk = func(d *dir) error {
		if d == nil || seen[d] {
			return nil
		}
		seen[d] = true
		if fs.cfg.Layout == LayoutEmbedded {
			for _, run := range d.content {
				for b := run.Start; b < run.End(); b++ {
					if err := mark(b); err != nil {
						return err
					}
				}
			}
		} else {
			for _, b := range d.direntBlocks {
				if err := mark(b); err != nil {
					return err
				}
			}
		}
		// Root's standalone record block (embedded).
		if err := mark(d.recBlock); err != nil {
			return err
		}
		for i, name := range d.names.order {
			if !d.names.live(i) {
				continue
			}
			ino := d.names.byName[name].ino
			if child, ok := fs.dirs[ino]; ok {
				if err := walk(child); err != nil {
					return err
				}
				continue
			}
			loc, err := fs.locate(ino)
			if err != nil {
				continue
			}
			if err := markSpill(loc.blk, loc.off); err != nil {
				return err
			}
		}
		// The directory record's own spill blocks.
		return markSpill(d.recBlock, d.recOff)
	}
	return walk(fs.dirs[fs.root])
}
