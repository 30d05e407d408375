package mdfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/crashsim"
	"redbud/internal/disk"
	"redbud/internal/extent"
	"redbud/internal/inode"
)

// recordSize aliases the inode record size for geometry math.
const recordSize = inode.RecordSize

// zeroRecord is what a cleared inode record holds; it is only ever read.
var zeroRecord [recordSize]byte

// direntSize is the fixed size of one directory entry in the normal
// layout: 8 bytes of inode number, 1 byte of name length, 55 bytes of name.
const direntSize = 64

// Errors returned by the metadata file system.
var (
	ErrExist    = errors.New("mdfs: entry exists")
	ErrNotExist = errors.New("mdfs: no such entry")
	ErrNotDir   = errors.New("mdfs: not a directory")
	ErrIsDir    = errors.New("mdfs: is a directory")
	ErrNotEmpty = errors.New("mdfs: directory not empty")
)

// Config holds the format-time parameters of the metadata file system.
type Config struct {
	// Blocks is the MDS device size in blocks.
	Blocks int64
	// BlockSize is the block size in bytes.
	BlockSize int64
	// Disk configures the device model.
	Disk disk.Config
	// JournalBlocks sizes the journal region; it controls checkpoint
	// frequency.
	JournalBlocks int64
	// TableBlocks sizes the global directory table region.
	TableBlocks int64
	// GroupBlocks is the block-group size.
	GroupBlocks int64
	// InodesPerGroup sizes the per-group inode table (normal layout).
	InodesPerGroup int64
	// CacheBlocks is the MDS block-cache capacity.
	CacheBlocks int
	// QueueDepth is the checkpoint elevator window.
	QueueDepth int
	// Layout selects normal or embedded directories.
	Layout Layout
	// Htree gives name lookups an indexed path (ext4-like) instead of a
	// linear directory scan (ext3-like). It only affects the normal
	// layout; embedded directories always use the in-memory index the
	// paper allows ("fast indexing mechanism of in-memory directory
	// entries").
	Htree bool
	// SyncWrites commits the journal after every operation, the
	// Metarates MDS configuration ("MDS was configured to use
	// synchronous writes for metadata integrity maintenance").
	SyncWrites bool
	// CommitEvery batches this many operations per journal commit when
	// SyncWrites is off.
	CommitEvery int
	// DirPreallocBlocks is the embedded layout's initial directory
	// content preallocation.
	DirPreallocBlocks int64
	// LazyFreeBatch is the number of deleted entries buffered per
	// directory before one batched lazy-free transaction reclaims them.
	LazyFreeBatch int
	// SpillDegree is the fragmentation-degree threshold (layout mapping
	// units per file) above which a directory preallocates spill blocks
	// for new files.
	SpillDegree float64
}

// DefaultConfig returns a 2 GiB MDS device with a 4 MiB journal and an
// 8 MiB cache, in the given layout. The MDS volume is a small partition of
// a disk, so seeks within it are short-stroke: the distance-dependent seek
// term is scaled down accordingly, leaving the positioning count (the
// quantity Figure 8 measures) as the dominant cost.
func DefaultConfig(layout Layout) Config {
	d := disk.DefaultConfig()
	d.SeekMaxNs = 2 * 1000 * 1000 // short-stroked metadata LUN
	return Config{
		Blocks:            1 << 19, // 2 GiB at 4 KiB
		BlockSize:         4096,
		Disk:              d,
		JournalBlocks:     1024,
		TableBlocks:       64,
		GroupBlocks:       16384, // 64 MiB groups
		InodesPerGroup:    8192,
		CacheBlocks:       2048,
		QueueDepth:        128,
		Layout:            layout,
		CommitEvery:       64,
		DirPreallocBlocks: 4,
		LazyFreeBatch:     64,
		SpillDegree:       4,
	}
}

// dir is the in-memory state of one directory: the namespace index plus
// the location bookkeeping of its on-disk representation.
type dir struct {
	ino    inode.Ino
	dirID  uint32 // embedded layout identification; 0 in normal layout
	parent inode.Ino
	group  int64
	names  nameIndex

	// recBlock/recOff locate the directory's own inode record.
	recBlock int64
	recOff   int

	// Normal layout: directory-entry blocks, the same blocks as the
	// contiguous-run mapping the directory record stores, and which entry
	// slots are in use.
	direntBlocks []int64
	direntMap    []extent.Extent
	slots        slotBitmap

	// Embedded layout: content extents holding inode records.
	content     []alloc.Range
	nextSlot    uint32
	freeSlots   []uint32 // cleared, reusable
	extentUnits int64    // Σ layout-mapping units of subfiles
}

// capSlots returns the number of inode records the embedded content can
// hold.
func (d *dir) capSlots(inodesPerBlock int64) uint32 {
	var blocks int64
	for _, r := range d.content {
		blocks += r.Count
	}
	return uint32(blocks * inodesPerBlock)
}

// fragDegree returns the directory's fragmentation degree: "the degree
// value is simply calculated by dividing the number of layout mapping
// units ... to the number of files".
func (d *dir) fragDegree() float64 {
	if d.names.len() == 0 {
		return 0
	}
	return float64(d.extentUnits) / float64(d.names.len())
}

// OpStats counts namespace operations.
type OpStats struct {
	Creates  int64
	Mkdirs   int64
	Lookups  int64
	Stats    int64
	Utimes   int64
	Unlinks  int64
	Readdirs int64
	Renames  int64
	LazyFree int64 // batched lazy-free transactions
}

// FS is one metadata file system instance. It is not safe for concurrent
// use; the MDS layer serializes operations.
type FS struct {
	cfg   Config
	geo   Geometry
	store *Store
	alloc *alloc.Allocator

	dirs     map[inode.Ino]*dir
	dirsByID map[uint32]*dir
	nextDir  uint32
	root     inode.Ino

	// Normal layout inode accounting.
	ibitmap   [][]uint64
	inodeFree []int64

	// Rename correlation: old inode number → current ("the additional
	// structure to correlate the old and new inodes").
	renamed map[inode.Ino]inode.Ino

	// Remount cycle guard: record locations already loaded during the
	// current Remount. A dirent graph with a cycle or cross-link (possible
	// only on corrupted state) must still mount defensively — the damage
	// itself is fsck's to report.
	remountSeen map[recKey]bool

	opSeq     int64 // pseudo-time for mtimes and commit batching
	sinceSync int
	stats     OpStats

	// undo is the running operation's undo log (undo.go). undoSeed holds
	// an operation's usual share, so a mount allocates nothing for it.
	undo     []undo
	undoSeed [8]undo

	// rec and dirRec are what the touch, utime, unlink, rename and layout
	// paths decode an inode record into and encode it back from, reused so
	// that updating a record allocates nothing: rec holds the inode an
	// operation works on, dirRec its directory's own record.
	rec, dirRec inode.Inode
	// chain is writeMapping's and freeSpill's spill-chain scratch.
	chain []int64
}

// New formats and mounts a metadata file system.
func New(cfg Config) (*FS, error) {
	fs, err := newUnformatted(cfg)
	if err != nil {
		return nil, err
	}
	if err := fs.format(); err != nil {
		return nil, err
	}
	return fs, nil
}

// newUnformatted builds the instance and reserves the fixed metadata
// regions without creating a namespace — the starting point for both
// format and image loading.
func newUnformatted(cfg Config) (*FS, error) {
	applyDefaults(&cfg)
	geo, err := computeGeometry(cfg)
	if err != nil {
		return nil, err
	}
	d := disk.New(cfg.Disk, cfg.Blocks)
	fs := &FS{
		cfg:      cfg,
		geo:      geo,
		store:    NewStore(d, geo.JournalStart, geo.JournalBlocks, cfg.CacheBlocks, cfg.QueueDepth),
		alloc:    alloc.New(cfg.Blocks, cfg.GroupBlocks),
		dirs:     make(map[inode.Ino]*dir),
		dirsByID: make(map[uint32]*dir),
		nextDir:  inode.RootDirID,
		renamed:  make(map[inode.Ino]inode.Ino),
	}
	fs.undo = fs.undoSeed[:0]
	if err := fs.reserveRegions(); err != nil {
		return nil, err
	}
	return fs, nil
}

// applyDefaults fills zero-valued tunables.
func applyDefaults(cfg *Config) {
	def := DefaultConfig(cfg.Layout)
	if cfg.Blocks == 0 {
		cfg.Blocks = def.Blocks
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.Disk.BlockSize == 0 {
		cfg.Disk = def.Disk
	}
	cfg.Disk.BlockSize = cfg.BlockSize
	if cfg.JournalBlocks == 0 {
		cfg.JournalBlocks = def.JournalBlocks
	}
	if cfg.TableBlocks == 0 {
		cfg.TableBlocks = def.TableBlocks
	}
	if cfg.GroupBlocks == 0 {
		cfg.GroupBlocks = def.GroupBlocks
	}
	if cfg.InodesPerGroup == 0 {
		cfg.InodesPerGroup = def.InodesPerGroup
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = def.CacheBlocks
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.CommitEvery == 0 {
		cfg.CommitEvery = def.CommitEvery
	}
	if cfg.DirPreallocBlocks == 0 {
		cfg.DirPreallocBlocks = def.DirPreallocBlocks
	}
	if cfg.LazyFreeBatch == 0 {
		cfg.LazyFreeBatch = def.LazyFreeBatch
	}
	if cfg.SpillDegree == 0 {
		cfg.SpillDegree = def.SpillDegree
	}
}

// reserveRegions marks the fixed metadata regions in the space allocator
// and initializes the normal-layout inode accounting.
func (fs *FS) reserveRegions() error {
	if err := fs.reserveFixed(); err != nil {
		return err
	}
	if fs.cfg.Layout == LayoutNormal {
		fs.ibitmap = make([][]uint64, fs.geo.Groups)
		fs.inodeFree = make([]int64, fs.geo.Groups)
		for g := range fs.ibitmap {
			fs.ibitmap[g] = make([]uint64, (fs.geo.InodesPerGroup+63)/64)
			fs.inodeFree[g] = fs.geo.InodesPerGroup
		}
		// Slot 0 is reserved so inode numbers are never zero.
		fs.ibitmap[0][0] |= 1
		fs.inodeFree[0]--
	}
	return nil
}

// reserveFixed marks the superblock, journal, directory table, and
// per-group metadata in the space allocator: the format-time reservations
// every allocator rebuild starts from.
func (fs *FS) reserveFixed() error {
	if err := fs.alloc.AllocExact(0, alloc.Range{Start: 0, Count: fs.geo.GroupsStart}); err != nil {
		return err
	}
	for g := int64(0); g < fs.geo.Groups; g++ {
		meta := alloc.Range{Start: fs.geo.groupBase(g), Count: fs.geo.dataStart(g) - fs.geo.groupBase(g)}
		if err := fs.alloc.AllocExact(0, meta); err != nil {
			return err
		}
	}
	// Tail blocks beyond the last full group are unusable; reserve them.
	tail := fs.geo.groupBase(fs.geo.Groups)
	if tail < fs.cfg.Blocks {
		if err := fs.alloc.AllocExact(0, alloc.Range{Start: tail, Count: fs.cfg.Blocks - tail}); err != nil {
			return err
		}
	}
	return nil
}

// format creates the root directory and writes the file system through to
// disk: mkfs must leave a durable instance.
func (fs *FS) format() error {
	if err := fs.makeRoot(); err != nil {
		return err
	}
	return fs.Sync()
}

// Root returns the root directory's inode number.
func (fs *FS) Root() inode.Ino { return fs.root }

// Layout returns the configured directory layout.
func (fs *FS) Layout() Layout { return fs.cfg.Layout }

// Store exposes the block store for measurement.
func (fs *FS) Store() *Store { return fs.store }

// Allocator exposes the space allocator for measurement.
func (fs *FS) Allocator() *alloc.Allocator { return fs.alloc }

// Stats returns a snapshot of the operation counters.
func (fs *FS) Stats() OpStats { return fs.stats }

// Utilization returns the allocated fraction of the MDS device.
func (fs *FS) Utilization() float64 { return fs.alloc.Utilization() }

// now advances and returns the pseudo-time used for mtimes.
func (fs *FS) now() int64 {
	fs.opSeq++
	return fs.opSeq
}

// Sync commits and checkpoints everything outstanding.
func (fs *FS) Sync() error {
	if err := fs.store.Commit(); err != nil {
		return err
	}
	fs.dropUndo()
	// Crash point: the sync's transaction is durably in the journal but
	// the checkpoint has not started — the classic committed-then-died
	// window that replay must close.
	if _, ok := fs.store.crash.Hit(crashsim.PtMdfsSyncGap, 0); ok {
		fs.store.crash.Kill()
	}
	fs.store.Checkpoint()
	return nil
}

// dirOf resolves a directory inode number, following rename correlation.
func (fs *FS) dirOf(ino inode.Ino) (*dir, error) {
	if cur, ok := fs.renamed[ino]; ok {
		ino = cur
	}
	d, ok := fs.dirs[ino]
	if !ok {
		return nil, fmt.Errorf("%w: directory %v", ErrNotExist, ino)
	}
	return d, nil
}

// Resolve follows the rename-correlation table from an old inode number to
// the current one. Unrenamed numbers map to themselves.
func (fs *FS) Resolve(ino inode.Ino) inode.Ino {
	seen := 0
	for {
		next, ok := fs.renamed[ino]
		if !ok {
			return ino
		}
		ino = next
		if seen++; seen > 1<<16 {
			panic("mdfs: rename correlation cycle")
		}
	}
}

// EndManagement drops the rename-correlation table: "this correlation is
// maintained until the management routines exit".
func (fs *FS) EndManagement() {
	fs.renamed = make(map[inode.Ino]inode.Ino)
}

// groupGoal returns the data-area allocation goal for a directory's group.
func (fs *FS) groupGoal(d *dir) int64 {
	return fs.geo.dataStart(d.group)
}

// pickGroup round-robins directories across allocation groups, the paper's
// 'rlov' directory distribution ("the content of subdirectory is
// distributed between multiple groups").
func (fs *FS) pickGroup() int64 {
	g := int64(fs.nextDir) % fs.geo.Groups
	return g
}

// allocData allocates count data blocks near goal and journals the
// block-bitmap updates of the touched groups. On failure the runs it took
// are the operation's rewind to give back.
func (fs *FS) allocData(goal, count int64) ([]alloc.Range, error) {
	var out []alloc.Range
	for count > 0 {
		start, got, err := fs.alloc.AllocNear(0, goal, count)
		if err != nil {
			return nil, err
		}
		fs.log(undo{kind: undoAlloc, a: start, b: got})
		out = append(out, alloc.Range{Start: start, Count: got})
		fs.dirtyBlockBitmap(start, got)
		goal = start + got
		count -= got
	}
	return out, nil
}

// allocBlock allocates one data block near goal and journals its
// block-bitmap word: allocData for a single block, without the run list.
func (fs *FS) allocBlock(goal int64) (int64, error) {
	blk, _, err := fs.alloc.AllocNear(0, goal, 1)
	if err != nil {
		return 0, err
	}
	fs.log(undo{kind: undoAlloc, a: blk, b: 1})
	fs.dirtyBlockBitmap(blk, 1)
	return blk, nil
}

// freeData frees data blocks, journals the bitmap updates, and forgets the
// blocks' contents.
func (fs *FS) freeData(r alloc.Range) error {
	if err := fs.alloc.Free(r); err != nil {
		return err
	}
	fs.log(undo{kind: undoFree, a: r.Start, b: r.Count})
	fs.dirtyBlockBitmap(r.Start, r.Count)
	for b := r.Start; b < r.End(); b++ {
		fs.store.Forget(b)
	}
	return nil
}

// dirtyBlockBitmap journals the block-bitmap words covering the range.
func (fs *FS) dirtyBlockBitmap(start, count int64) {
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], uint64(fs.opSeq))
	for b := start; b < start+count; {
		g := fs.geo.groupOf(b)
		if g < 0 {
			b++
			continue
		}
		bbb := fs.geo.blockBitmapBlock(g)
		word := (b - fs.geo.groupBase(g)) / 64
		// The byte content mirrors a version stamp; the accounting —
		// which block is dirtied — is what the experiments measure.
		fs.store.WriteAt(bbb, int(word%int64(fs.cfg.BlockSize/8))*8, stamp[:])
		next := fs.geo.groupBase(g) + (word+1)*64
		if next > start+count {
			next = start + count
		}
		b = next
	}
}

// writeInodeAt encodes and journals the record at (block, off), straight
// into the transaction's buffer for the block. A record that cannot be
// encoded touches nothing.
func (fs *FS) writeInodeAt(block int64, off int, n *inode.Inode) error {
	if err := n.Validate(); err != nil {
		return err
	}
	return n.MarshalTo(fs.store.Modify(block, off, recordSize))
}
