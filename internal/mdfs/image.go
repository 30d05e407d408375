package mdfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"redbud/internal/alloc"
)

// Image persistence: the metadata file system's durable state (home blocks
// plus committed-but-unchekpointed journal records) serialized to a flat
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
	writeBlocks := func(m map[int64][]byte) error {
		keys := make([]int64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if err := binary.Write(bw, le, int64(len(keys))); err != nil {
			return err
		}
		for _, k := range keys {
			if err := binary.Write(bw, le, k); err != nil {
				return err
			}
			if _, err := bw.Write(m[k]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeBlocks(fs.store.home); err != nil {
		return err
	}
	// The journal's replayable records: serialize the dirty overlay,
	// which mirrors them (last-write-wins).
	if err := writeBlocks(fs.store.dirty); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadImage builds a mounted file system from a saved image. The disk and
// cache state start cold, as after a reboot; the journal overlay is
// replayed and the namespace rebuilt by Remount.
func LoadImage(r io.Reader) (*FS, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
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
		if err := binary.Read(br, le, p); err != nil {
			return nil, fmt.Errorf("mdfs: image geometry: %w", err)
		}
	}
	cfg.Disk.BlockSize = cfg.BlockSize
	fs, err := newUnformatted(cfg)
	if err != nil {
		return nil, err
	}
	readBlocks := func(dst map[int64][]byte) error {
		var n int64
		if err := binary.Read(br, le, &n); err != nil {
			return err
		}
		if n < 0 || n > cfg.Blocks {
			return fmt.Errorf("mdfs: image block count %d out of range", n)
		}
		for i := int64(0); i < n; i++ {
			var blk int64
			if err := binary.Read(br, le, &blk); err != nil {
				return err
			}
			if blk < 0 || blk >= cfg.Blocks {
				return fmt.Errorf("mdfs: image block %d out of range", blk)
			}
			buf := make([]byte, cfg.BlockSize)
			if _, err := io.ReadFull(br, buf); err != nil {
				return err
			}
			dst[blk] = buf
		}
		return nil
	}
	if err := readBlocks(fs.store.home); err != nil {
		return nil, fmt.Errorf("mdfs: image home blocks: %w", err)
	}
	if err := readBlocks(fs.store.dirty); err != nil {
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
// dynamic block in the allocator.
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
			rec, err := fs.inodeAt(fs.store, loc.blk, loc.off)
			if err != nil {
				continue
			}
			for _, spill := range fs.spillChain(fs.store, rec) {
				if err := mark(spill); err != nil {
					return err
				}
			}
		}
		// The directory record's own spill blocks.
		rec, err := fs.inodeAt(fs.store, d.recBlock, d.recOff)
		if err == nil {
			for _, spill := range fs.spillChain(fs.store, rec) {
				if err := mark(spill); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(fs.dirs[fs.root])
}
