// Package pfs assembles Redbud: the block-based parallel file system the
// MiF techniques were implemented in. A mount wires one metadata server to
// a set of IO servers, stripes file data across them, and applies the
// configured allocation policy and directory layout.
//
// Config profiles reproduce the paper's comparison set: the MiF system
// (on-demand preallocation + embedded directories), the original Redbud
// (reservation + ext3-style directories), and the Lustre-like baseline
// (reservation + Htree-indexed ext4-style MDS).
package pfs

import (
	"fmt"
	"strings"
	"sync"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/defrag"
	"redbud/internal/disk"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/netsim"
	"redbud/internal/ost"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// mdsAddr is the metadata server's address on a single-MDS mount's
// connection.
const mdsAddr = "mds"

// ostAddr names IO server i on the mount's connection.
func ostAddr(i int) string { return fmt.Sprintf("ost%d", i) }

// PolicyKind selects the data-placement policy applied at the IO servers.
type PolicyKind int

// Placement policies, matching the evaluation's comparison set.
const (
	PolicyVanilla PolicyKind = iota
	PolicyReservation
	PolicyOnDemand
	PolicyStatic
)

// policyNames is the one name table behind String and ParsePolicy.
var policyNames = [...]string{
	PolicyVanilla:     "vanilla",
	PolicyReservation: "reservation",
	PolicyOnDemand:    "on-demand",
	PolicyStatic:      "static",
}

// String names the policy for benchmark tables.
func (p PolicyKind) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy returns the policy String names, or an error listing the
// known names.
func ParsePolicy(name string) (PolicyKind, error) {
	for p, n := range policyNames {
		if n == name {
			return PolicyKind(p), nil
		}
	}
	return 0, fmt.Errorf("pfs: unknown policy %q (want one of %s)", name, strings.Join(policyNames[:], ", "))
}

// Config describes one Redbud mount.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// OSTs is the number of IO servers (the paper stripes over 5 or 8
	// disks depending on the experiment).
	OSTs int
	// OST configures each IO server.
	OST ost.Config
	// StripeBlocks is the stripe unit in blocks.
	StripeBlocks int64
	// MDS configures the metadata server.
	MDS mds.Config
	// Policy selects the data-placement policy.
	Policy PolicyKind
	// ReservationWindow is the per-inode window size in blocks for the
	// reservation policy (Figure 6(b) sweeps it).
	ReservationWindow int64
	// OnDemand configures the MiF policy.
	OnDemand core.OnDemandConfig
	// Defrag, when set, overrides the tuning of the online defragmentation
	// engine every mount carries (defrag.DefaultConfig otherwise). The
	// engine is passive until driven through FS.Defrag.
	Defrag *defrag.Config
	// RPC configures the client↔server connection: the retry policy
	// and, when Fault is set, deterministic fault injection. The zero
	// value is the default fault-free connection; OST crashes
	// (CrashOST) work either way.
	RPC rpc.ClientConfig
	// Cache, when set, mounts a client-side block cache between the file
	// operations and the RPC clients: re-reads of cached blocks cost no
	// RPCs, adjacent dirty blocks flush as one coalesced write, and
	// sequential readers trigger adaptive readahead. Nil (the default)
	// keeps the mount write-through, so existing runs stay byte-identical.
	Cache *cache.Config
	// Replication, when set with RF > 1, gives every stripe component an
	// N-way replica set: writes fan out to all live copies, reads steer to
	// the least-loaded one (failing over on RPC errors), and a background
	// re-replication engine restores redundancy after an OST crash. Nil or
	// RF <= 1 runs the same data path over sets of one — the stripe-aligned
	// server alone, no replica manager — byte-identical to runs without
	// this field (TestRF1PathIsByteIdentical).
	Replication *replica.Config
	// Crash, when set, attaches a crash-point injector to the mount: the
	// journal, metadata checkpoint, IO-server write/flush/truncate/migrate
	// paths, replica repair, and cache barriers all announce named crash
	// points to it, and the armed one kills the mount mid-operation (see
	// internal/crashsim). Nil — the default — leaves every hot path on its
	// nil-receiver fast path.
	Crash *crashsim.Injector
	// Metrics, when set, instruments the mount into the registry at New
	// time (labeled with the configuration Name). Multiple mounts may share
	// one registry; their counters sum.
	Metrics *telemetry.Registry
	// Trace, when set, records per-layer request spans on the tracer's
	// simulated timeline for every operation on the mount.
	Trace *telemetry.Tracer
}

// MiF returns the full MiF system: on-demand preallocation and embedded
// directories.
func MiF(osts int) Config {
	return Config{
		Name:         "MiF",
		OSTs:         osts,
		OST:          ost.DefaultConfig(),
		StripeBlocks: 64, // 256 KiB stripe unit
		MDS:          mds.DefaultConfig(mdfs.LayoutEmbedded),
		Policy:       PolicyOnDemand,
		OnDemand:     core.DefaultOnDemandConfig(),
	}
}

// RedbudOrig returns the original Redbud baseline: reservation
// preallocation and traditional (ext3) directory placement.
func RedbudOrig(osts int) Config {
	return Config{
		Name:              "Redbud",
		OSTs:              osts,
		OST:               ost.DefaultConfig(),
		StripeBlocks:      64,
		MDS:               mds.DefaultConfig(mdfs.LayoutNormal),
		Policy:            PolicyReservation,
		ReservationWindow: 2048, // 8 MiB, the ext4 default neighbourhood
	}
}

// LustreLike returns the Lustre baseline: reservation preallocation and an
// Htree-indexed ext4-style MDS.
func LustreLike(osts int) Config {
	cfg := RedbudOrig(osts)
	cfg.Name = "Lustre"
	cfg.MDS.FS.Htree = true
	return cfg
}

// WithPolicy returns a copy of cfg running a different placement policy,
// for the policy-sweep experiments.
func (c Config) WithPolicy(p PolicyKind) Config {
	c.Policy = p
	c.Name = p.String()
	return c
}

// file is one open or known file: its MDS inode and its per-OST objects.
type file struct {
	ino      inode.Ino
	objects  []ost.ObjectID // index = OST
	sizeHint int64          // declared size in blocks (static policy)
	extents  int            // last extent count reported to the MDS
}

// FS is one mounted Redbud instance. All client↔server traffic flows
// through the rpc connection: typed messages to per-server endpoints over
// a connection that charges the GbE metadata link and the per-OST
// FibreChannel fabric. The server handles (mds, osts) remain only for
// measurement and for the server-local defragmentation engine.
type FS struct {
	cfg Config

	mu      sync.Mutex
	mds     *mds.Server
	osts    []*ost.Server
	mdsLink *netsim.Link   // GbE path from clients to the MDS
	fabric  *netsim.Fabric // per-OST FibreChannel data paths
	conn    *rpc.Conn      // one call path: retry, blackholes, faults, wire
	mdsc    *rpc.MDSClient
	ostc    []*rpc.OSTClient
	defrag  *defrag.Engine   // online defragmentation, one controller per OST
	cache   *cache.Cache     // client block cache, nil on write-through mounts
	rep     *replica.Manager // replica table, nil at RF <= 1
	files   map[inode.Ino]*file
	nextObj uint64

	// Reusable fan-out scratch, only touched under fs.mu.
	stripeScratch []stripePiece
	// selfSets[c] and selfMembers[c] are component c's set of one — the
	// stripe-aligned server alone — which the set helpers (replica.go)
	// answer with at RF <= 1; load is a replicated mount's steering signal.
	selfSets    [][]int
	selfMembers [][]replica.MemberState
	load        func(ost int) sim.Ns

	// tracer records per-operation spans; writeHist/readHist observe each
	// client operation's simulated duration (the trace clock's advance over
	// the op) when both a registry and a tracer are attached.
	tracer    *telemetry.Tracer
	writeHist *telemetry.Histogram
	readHist  *telemetry.Histogram
	// writeSeries/readSeries sample client-visible throughput (blocks per
	// window of simulated time); extentSeries tracks the written file's
	// extent count over time — the aging curve of Figures 8 and 9.
	writeSeries  *telemetry.Series
	readSeries   *telemetry.Series
	extentSeries *telemetry.Series
}

// New formats and mounts a Redbud file system.
func New(cfg Config) (*FS, error) {
	if cfg.OSTs <= 0 {
		return nil, fmt.Errorf("pfs: need at least one OST, got %d", cfg.OSTs)
	}
	if cfg.StripeBlocks <= 0 {
		return nil, fmt.Errorf("pfs: invalid stripe unit %d", cfg.StripeBlocks)
	}
	srv, err := mds.New(cfg.MDS)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		cfg:     cfg,
		mds:     srv,
		mdsLink: netsim.NewLink(netsim.GbE()),
		fabric:  netsim.NewFabric(netsim.FC400(), cfg.OSTs),
		conn:    rpc.NewConn(cfg.RPC),
		files:   make(map[inode.Ino]*file),
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, ost.NewServer(i, cfg.OST))
	}
	if cfg.Crash != nil {
		srv.FS().Store().SetCrashInjector(cfg.Crash)
		for _, osrv := range fs.osts {
			osrv.SetCrashInjector(cfg.Crash)
		}
	}
	fs.conn.Register(mdsAddr, rpc.NewMDSEndpoint(mdsAddr, srv), fs.mdsLink)
	fs.mdsc = rpc.NewMDSClient(fs.conn, mdsAddr)
	factory := fs.policyFactory()
	for i, osrv := range fs.osts {
		addr := ostAddr(i)
		fs.conn.Register(addr, rpc.NewOSTEndpoint(addr, osrv, factory), fs.fabric.Link(i))
		fs.ostc = append(fs.ostc, rpc.NewOSTClient(fs.conn, addr, cfg.OST.Disk.BlockSize))
		fs.selfSets = append(fs.selfSets, []int{i})
		fs.selfMembers = append(fs.selfMembers, []replica.MemberState{{OST: i}})
	}
	dc := defrag.DefaultConfig()
	if cfg.Defrag != nil {
		dc = *cfg.Defrag
	}
	fs.defrag = defrag.NewEngine(dc, fs.osts...)
	if cfg.Cache != nil {
		fs.cache = cache.New(*cfg.Cache, cacheStore{fs})
	}
	if cfg.Replication != nil && cfg.Replication.RF > 1 {
		if cfg.Replication.RF > cfg.OSTs {
			return nil, fmt.Errorf("pfs: replication factor %d exceeds %d OSTs",
				cfg.Replication.RF, cfg.OSTs)
		}
		fs.rep = replica.NewManager(*cfg.Replication, cfg.OSTs)
		fs.load = func(i int) sim.Ns { return fs.osts[i].Disk().Stats().BusyNs }
		// The repair throttle meters against the same simulated-time
		// currency the defrag mover uses: accumulated device busy time.
		fs.rep.SetTimeSource(func() sim.Ns {
			var total sim.Ns
			for _, srv := range fs.osts {
				total += srv.Disk().Stats().BusyNs
			}
			return total
		})
	}
	if cfg.Metrics != nil {
		fs.Instrument(cfg.Metrics, telemetry.Labels{"fs": cfg.Name})
	}
	if cfg.Trace != nil {
		fs.SetTracer(cfg.Trace)
	}
	return fs, nil
}

// Instrument publishes the whole mount into the registry: per-operation
// latency histograms at the PFS layer, then recursively the MDS (with its
// GbE link, metadata disk, and journal), every IO server (with its disk and
// elevator), and the FibreChannel data fabric. Each component's metrics are
// distinguished by a "layer" label on top of the given base labels.
func (fs *FS) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	fs.mu.Lock()
	pl := labels.With("layer", "pfs")
	fs.writeHist = reg.Histogram("pfs_write_ns", pl)
	fs.readHist = reg.Histogram("pfs_read_ns", pl)
	fs.writeSeries = reg.Series("pfs_write_blocks", pl, 0, 0)
	fs.readSeries = reg.Series("pfs_read_blocks", pl, 0, 0)
	fs.extentSeries = reg.Series("pfs_file_extents", pl, 0, 0)
	fs.mu.Unlock()
	fs.conn.Instrument(reg, labels.With("layer", "rpc"))
	fs.mds.Instrument(reg, labels.With("layer", "mds"))
	fs.mdsLink.Instrument(reg, labels.With("layer", "net").With("link", "mds"))
	for i, srv := range fs.osts {
		srv.Instrument(reg, labels.With("layer", "ost").With("ost", fmt.Sprint(i)))
	}
	fs.fabric.Instrument(reg, labels.With("layer", "net"))
	fs.defrag.Instrument(reg, labels.With("layer", "defrag"))
	if fs.cache != nil {
		fs.cache.Instrument(reg, labels.With("layer", "cache"))
	}
	if fs.rep != nil {
		fs.rep.Instrument(reg, labels.With("layer", "replica"))
	}
}

// SetTracer attaches (or with nil detaches) the span tracer to the mount
// and every server beneath it.
func (fs *FS) SetTracer(t *telemetry.Tracer) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tracer = t
	fs.conn.SetTracer(t)
	fs.mds.SetTracer(t)
	for _, srv := range fs.osts {
		srv.SetTracer(t)
	}
	fs.defrag.SetTracer(t)
	if fs.cache != nil {
		// Stamp cache events on the mount's timeline (t.Now is nil-safe,
		// so a detached tracer just pins them at time zero).
		fs.cache.SetClock(t.Now)
	}
	if fs.rep != nil {
		fs.rep.SetClock(t.Now)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (fs *FS) Tracer() *telemetry.Tracer {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.tracer
}

// startOpLocked opens the root "pfs" span of one client operation and
// points the rpc connection at it, so every rpc span (and the server and
// network spans beneath) nests underneath. Callers hold fs.mu; a nil
// tracer makes the whole chain a no-op.
func (fs *FS) startOpLocked(name string) *telemetry.ActiveSpan {
	if fs.tracer == nil {
		return nil
	}
	sp := fs.tracer.Start("pfs", name, 0)
	fs.conn.SetTraceParent(sp.ID())
	return sp
}

// endOpLocked closes an operation span and clears the connection's trace
// parent. Callers hold fs.mu.
func (fs *FS) endOpLocked(sp *telemetry.ActiveSpan) {
	if sp == nil {
		return
	}
	fs.conn.SetTraceParent(0)
	sp.End()
}

// observeOpLocked records one operation's simulated duration — the trace
// clock's advance since begin — into the histogram. Without a tracer there
// is no per-op timeline, so nothing is observed. Callers hold fs.mu.
func (fs *FS) observeOpLocked(h *telemetry.Histogram, begin sim.Ns) {
	if h != nil && fs.tracer != nil {
		h.Observe(fs.tracer.Now() - begin)
	}
}

// Config returns the mount configuration.
func (fs *FS) Config() Config { return fs.cfg }

// MDS exposes the metadata server for measurement.
func (fs *FS) MDS() *mds.Server { return fs.mds }

// OST exposes IO server i for measurement.
func (fs *FS) OST(i int) *ost.Server { return fs.osts[i] }

// OSTs returns the IO server count.
func (fs *FS) OSTs() int { return len(fs.osts) }

// Defrag returns the mount's online defragmentation engine (one controller
// per OST). The engine is built at mount time but does nothing until driven
// — batch tools call Run, a live system interleaves Step with traffic.
func (fs *FS) Defrag() *defrag.Engine { return fs.defrag }

// Cache returns the client block cache, or nil when the mount runs
// write-through (the default).
func (fs *FS) Cache() *cache.Cache { return fs.cache }

// Replication returns the replica manager, or nil when every replica set
// is a set of one (RF <= 1, the default) and there is nothing to manage.
func (fs *FS) Replication() *replica.Manager { return fs.rep }

// cacheStore adapts the mount into the cache's backing store. Its methods
// only run inside cache calls made while fs.mu is held (every cache entry
// point in this package holds it), so they use the *Locked paths directly
// and never re-enter the cache — the lock order is fs.mu, then cache.mu,
// and the write-back/fetch callbacks stay strictly below both.
type cacheStore struct{ fs *FS }

// WriteBack flushes one coalesced dirty run through the regular striped
// write path, extent-churn accounting included.
func (s cacheStore) WriteBack(f cache.FileID, stream core.StreamID, blk, count int64) error {
	fl, ok := s.fs.files[inode.Ino(f)]
	if !ok {
		return fmt.Errorf("pfs: write-back for unknown inode %d", uint64(f))
	}
	// Crash point: the cache chose to write this dirty run back but the
	// RPCs never left the client — the blocks were only ever in volatile
	// client memory, so losing them is allowed until a barrier returns.
	if _, ok := s.fs.cfg.Crash.Hit(crashsim.PtCacheWriteback, count); ok {
		s.fs.cfg.Crash.Kill()
	}
	return s.fs.writeThroughLocked(fl, stream, blk, count)
}

// Fetch reads one missing (possibly readahead-extended) run through the
// regular striped read path.
func (s cacheStore) Fetch(f cache.FileID, blk, count int64) error {
	fl, ok := s.fs.files[inode.Ino(f)]
	if !ok {
		return fmt.Errorf("pfs: fetch for unknown inode %d", uint64(f))
	}
	return s.fs.readThroughLocked(fl, blk, count)
}

// cacheSpanLocked opens the "cache" span of one cached operation under the
// pfs op span and points the rpc connection at it, so any write-back or
// fetch RPCs nest pfs → cache → rpc. Callers hold fs.mu.
func (fs *FS) cacheSpanLocked(name string, op *telemetry.ActiveSpan) *telemetry.ActiveSpan {
	if fs.tracer == nil {
		return nil
	}
	sp := fs.tracer.Start("cache", name, op.ID())
	fs.conn.SetTraceParent(sp.ID())
	return sp
}

// endCacheSpanLocked closes a cache span and restores the rpc connection's
// trace parent to the enclosing op span. Callers hold fs.mu.
func (fs *FS) endCacheSpanLocked(sp, op *telemetry.ActiveSpan) {
	if sp == nil {
		return
	}
	fs.conn.SetTraceParent(op.ID())
	sp.End()
}

// flushFileLocked is the per-file barrier on cached mounts: every dirty
// block of f is written back before the caller's own RPCs proceed. A
// write-through mount has nothing to do. Callers hold fs.mu.
func (fs *FS) flushFileLocked(f *file, name string, op *telemetry.ActiveSpan) error {
	if fs.cache == nil {
		return nil
	}
	// Crash point: power fails as the barrier starts — nothing written
	// back, nothing acknowledged.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheBarrierFlush, 0); ok {
		fs.cfg.Crash.Kill()
	}
	sp := fs.cacheSpanLocked(name, op)
	err := fs.cache.FlushFile(cache.FileID(f.ino))
	fs.endCacheSpanLocked(sp, op)
	if err != nil {
		return err
	}
	// Crash point: the write-backs all left the client, but the barrier's
	// acknowledgement never reached the application — the data sits in the
	// servers' volatile queues, unacked, and may still be lost.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheBarrierAck, 0); ok {
		fs.cfg.Crash.Kill()
	}
	return nil
}

// Root returns the root directory.
func (fs *FS) Root() inode.Ino { return fs.mds.Root() }

// policyFactory builds the configured placement policy.
func (fs *FS) policyFactory() ost.PolicyFactory {
	switch fs.cfg.Policy {
	case PolicyOnDemand:
		od := fs.cfg.OnDemand
		return func(src core.BlockSource, _ int64) core.Policy {
			return core.NewOnDemand(src, od)
		}
	case PolicyReservation:
		window := fs.cfg.ReservationWindow
		if window <= 0 {
			window = 2048
		}
		return func(src core.BlockSource, _ int64) core.Policy {
			return core.NewReservation(src, window)
		}
	case PolicyStatic:
		return func(src core.BlockSource, sizeHint int64) core.Policy {
			if sizeHint <= 0 {
				sizeHint = 1
			}
			return core.NewStatic(src, sizeHint)
		}
	default:
		return func(src core.BlockSource, _ int64) core.Policy {
			return core.NewVanilla(src)
		}
	}
}

// ostBusy returns OST i's device timeline: the longer of its disk and its
// FibreChannel link busy time (they pipeline).
func (fs *FS) ostBusy(i int) sim.Ns {
	b := fs.osts[i].Disk().Stats().BusyNs
	if n := fs.fabric.Link(i).Stats().BusyNs; n > b {
		b = n
	}
	return b
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(parent inode.Ino, name string) (inode.Ino, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("mkdir")
	defer fs.endOpLocked(sp)
	return fs.mdsc.Mkdir(parent, name)
}

// Create creates a file striped across the IO servers. sizeHintBlocks
// declares the expected file size (in file-system blocks); the static
// policy fallocates it, other policies ignore it.
func (fs *FS) Create(parent inode.Ino, name string, sizeHintBlocks int64) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("create")
	defer fs.endOpLocked(sp)
	ino, err := fs.mdsc.Create(parent, name)
	if err != nil {
		return nil, err
	}
	f := &file{ino: ino, sizeHint: sizeHintBlocks}
	if err := fs.createObjectsLocked(f); err != nil {
		// It removed its objects and replica state; the name goes too, or it
		// stays linked to an inode the mount cannot open, re-create or delete.
		_ = fs.mdsc.Unlink(parent, name)
		return nil, err
	}
	fs.files[ino] = f
	return &File{fs: fs, f: f, parent: parent, name: name}, nil
}

// Open opens an existing file with the aggregated open+getlayout request.
func (fs *FS) Open(parent inode.Ino, name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("open")
	defer fs.endOpLocked(sp)
	ino, _, err := fs.mdsc.OpenGetLayout(parent, name)
	if err != nil {
		return nil, err
	}
	f, ok := fs.files[ino]
	if !ok {
		return nil, fmt.Errorf("pfs: inode %v has no objects (file created outside this mount)", ino)
	}
	if fs.rep != nil {
		// A replicated open also refreshes the replica layout from the MDS
		// table (the client pays the extra metadata round trip).
		if _, err := fs.mdsc.GetReplicaLayout(ino); err != nil {
			return nil, err
		}
	}
	return &File{fs: fs, f: f, parent: parent, name: name}, nil
}

// Delete removes a file: its MDS entry and its OST objects.
func (fs *FS) Delete(parent inode.Ino, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("delete")
	defer fs.endOpLocked(sp)
	ino, err := fs.mdsc.LookupResolved(parent, name)
	if err != nil {
		return err
	}
	if err := fs.mdsc.Unlink(parent, name); err != nil {
		return err
	}
	f, ok := fs.files[ino]
	if !ok {
		return nil // metadata-only file (no data written)
	}
	// Delete is a flush barrier: dirty blocks drain before the objects go
	// away, then the cache forgets the file entirely.
	if err := fs.flushFileLocked(f, "delete-barrier", sp); err != nil {
		return err
	}
	// Copies on down servers are orphaned (the revived server's object is
	// garbage the simulator tolerates).
	for c := range f.objects {
		if err := fs.eachMemberLocked(f, c, false, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].Delete(obj)
		}); err != nil {
			return err
		}
	}
	fs.forgetLocked(f)
	if fs.cache != nil {
		fs.cache.Drop(cache.FileID(ino))
	}
	delete(fs.files, ino)
	return nil
}

// componentSizeHint returns the per-OST object size hint for a striped
// file of total blocks.
func (fs *FS) componentSizeHint(total int64) int64 {
	if total <= 0 {
		return 0
	}
	per := total / int64(len(fs.osts))
	return per + fs.cfg.StripeBlocks // slack for uneven striping
}

// componentBlocks returns how many blocks of a total-block file land on
// OST i.
func (fs *FS) componentBlocks(total int64, i int) int64 {
	var n int64
	for b := int64(0); b < total; b += fs.cfg.StripeBlocks {
		end := b + fs.cfg.StripeBlocks
		if end > total {
			end = total
		}
		if int((b/fs.cfg.StripeBlocks)%int64(len(fs.osts))) == i {
			n += end - b
		}
	}
	return n
}

// stripe maps the file logical range [blk, blk+count) onto per-OST
// component ranges.
type stripePiece struct {
	ostIdx  int
	logical int64 // component-local logical block
	count   int64
}

// appendStripeRange splits a file-logical range into component pieces,
// appending into dst so the write/read hot paths can reuse one scratch slice
// per mount instead of allocating a piece list per operation.
func (fs *FS) appendStripeRange(dst []stripePiece, blk, count int64) []stripePiece {
	out := dst
	n := int64(len(fs.osts))
	su := fs.cfg.StripeBlocks
	for count > 0 {
		stripeIdx := blk / su
		within := blk % su
		run := su - within
		if run > count {
			run = count
		}
		piece := stripePiece{
			ostIdx:  int(stripeIdx % n),
			logical: (stripeIdx/n)*su + within,
			count:   run,
		}
		if m := len(out); m > 0 && out[m-1].ostIdx == piece.ostIdx &&
			out[m-1].logical+out[m-1].count == piece.logical {
			out[m-1].count += run
		} else {
			out = append(out, piece)
		}
		blk += run
		count -= run
	}
	return out
}

// Flush forces all queued device requests on every IO server. Flushes
// are advisory — a flush RPC lost beyond the retry budget is dropped, not
// surfaced (the queued requests drain with the next forced flush).
func (fs *FS) Flush() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := range fs.ostc {
		if fs.downLocked(i) {
			continue // no point paying retry timeouts on a suspected server
		}
		_, _ = fs.ostc[i].Flush()
	}
}

// Sync flushes the IO servers and the metadata server. On cached mounts
// it is the mount-wide flush barrier: every file's dirty blocks are
// written back before the servers are forced.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	if fs.cache != nil {
		// Crash point: power fails at the start of the mount-wide flush
		// barrier, with every file's dirty blocks still client-side.
		if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheSyncFlush, 0); ok {
			fs.mu.Unlock()
			fs.cfg.Crash.Kill()
		}
		if err := fs.cache.Flush(); err != nil {
			fs.mu.Unlock()
			return err
		}
	}
	fs.mu.Unlock()
	fs.Flush()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mdsc.Sync()
}

// DataBusyMax returns the elapsed time of a data phase executed in
// parallel across the stripe: the largest per-component timeline, where a
// component's timeline is the longer of its disk and its FibreChannel
// link (they pipeline).
func (fs *FS) DataBusyMax() sim.Ns {
	var max sim.Ns
	for i := range fs.osts {
		if b := fs.ostBusy(i); b > max {
			max = b
		}
	}
	return max
}

// Fabric exposes the data network for measurement.
func (fs *FS) Fabric() *netsim.Fabric { return fs.fabric }

// DataStats returns the summed IO-server disk counters.
func (fs *FS) DataStats() disk.Stats {
	var total disk.Stats
	for _, srv := range fs.osts {
		total = total.Add(srv.Disk().Stats())
	}
	return total
}

// ResetDataStats zeroes the IO-server disk and network counters for a new
// phase.
func (fs *FS) ResetDataStats() {
	for _, srv := range fs.osts {
		srv.Disk().ResetStats()
	}
	fs.fabric.Reset()
}

// TotalExtents returns a file's segment count summed over its stripe
// components — the paper's Table I metric.
func (fs *FS) TotalExtents(f *File) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.totalExtentsLocked(f.f)
}

// totalExtentsLocked sums the segment counts over one clean replica per
// component, failing over like a read when a pick turns out to be
// unreachable. Callers hold fs.mu.
func (fs *FS) totalExtentsLocked(f *file) (int, error) {
	total := 0
	for c := range f.objects {
		for {
			r, obj, ok := fs.bookReplicaLocked(f, c)
			if !ok {
				return 0, fmt.Errorf("pfs: no readable replica for component %d", c)
			}
			n, err := fs.ostc[r].ExtentCount(obj)
			if err == nil {
				total += n
				break
			}
			if !fs.failoverLocked(err, f, c, r) {
				return 0, err
			}
		}
	}
	return total, nil
}

// File is an open handle on a striped file.
type File struct {
	fs     *FS
	f      *file
	parent inode.Ino
	name   string
}

// Ino returns the file's inode number.
func (h *File) Ino() inode.Ino { return h.f.ino }

// ObjectID returns the file's object ID on IO server i, for inspection
// tooling.
func (h *File) ObjectID(i int) ost.ObjectID { return h.f.objects[i] }

// Write stores count blocks at file-logical block blk on behalf of stream.
func (h *File) Write(stream core.StreamID, blk, count int64) error {
	if count <= 0 || blk < 0 {
		return fmt.Errorf("pfs: invalid write [%d,+%d)", blk, count)
	}
	fs := h.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("write")
	sp.AnnotateInt("blocks", int64(count))
	begin := fs.tracer.Now()
	defer func() {
		fs.observeOpLocked(fs.writeHist, begin)
		fs.writeSeries.Add(fs.tracer.Now(), count)
		fs.endOpLocked(sp)
	}()
	if fs.cache != nil {
		csp := fs.cacheSpanLocked("write", sp)
		err := fs.cache.Write(cache.FileID(h.f.ino), stream, blk, count)
		fs.endCacheSpanLocked(csp, sp)
		return err
	}
	return fs.writeThroughLocked(h.f, stream, blk, count)
}

// writeThroughLocked stores count blocks at file-logical block blk across
// the stripe — the uncached write path, also the cache's write-back target.
// Each stripe piece fans out to every live replica of its component. One
// whose write fails at the transport layer is marked down and stale rather
// than failing the client write; the write errors only when a piece gets no
// acknowledgement at all. Callers hold fs.mu.
func (fs *FS) writeThroughLocked(f *file, stream core.StreamID, blk, count int64) error {
	before, err := fs.totalExtentsLocked(f)
	if err != nil {
		return err
	}
	pieces := fs.appendStripeRange(fs.stripeScratch[:0], blk, count)
	fs.stripeScratch = pieces
	for _, p := range pieces {
		obj, targets, err := fs.writeTargetsLocked(f, p.ostIdx)
		if err != nil {
			return err
		}
		acks := 0
		for _, r := range targets {
			if err := fs.ostc[r].Write(obj, stream, p.logical, p.count); err != nil {
				if fs.staleLocked(err, f, p.ostIdx, r) {
					continue
				}
				return err
			}
			acks++
		}
		if acks == 0 {
			return fmt.Errorf("pfs: write [%d,+%d): no live replica for component %d",
				blk, count, p.ostIdx)
		}
	}
	after, err := fs.totalExtentsLocked(f)
	if err != nil {
		return err
	}
	// Mapping churn charges the MDS CPU model: the units inserted or
	// merged, plus an indexing term that grows with the map the servers
	// and MDS must search per operation — "increased metadata overhead
	// of high fragmentation rate causes less efficient mapping".
	churn := after - before
	if churn < 0 {
		churn = -churn
	}
	if err := fs.mdsc.NoteExtentChurn(churn + 1 + after/1024); err != nil {
		return err
	}
	f.extents = after
	fs.extentSeries.Set(fs.tracer.Now(), int64(after))
	return nil
}

// Read fetches count blocks at file-logical block blk.
func (h *File) Read(blk, count int64) error {
	if count <= 0 || blk < 0 {
		return fmt.Errorf("pfs: invalid read [%d,+%d)", blk, count)
	}
	fs := h.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("read")
	sp.AnnotateInt("blocks", int64(count))
	begin := fs.tracer.Now()
	defer func() {
		fs.observeOpLocked(fs.readHist, begin)
		fs.readSeries.Add(fs.tracer.Now(), count)
		fs.endOpLocked(sp)
	}()
	if fs.cache != nil {
		csp := fs.cacheSpanLocked("read", sp)
		err := fs.cache.Read(cache.FileID(h.f.ino), blk, count)
		fs.endCacheSpanLocked(csp, sp)
		return err
	}
	return fs.readThroughLocked(h.f, blk, count)
}

// readThroughLocked fetches count blocks at file-logical block blk across
// the stripe — the uncached read path, also the cache's fetch target. Each
// stripe piece is served by one steered replica: the least-loaded clean
// live copy, retried on the next-best copy when the pick fails at the
// transport layer. Callers hold fs.mu.
func (fs *FS) readThroughLocked(f *file, blk, count int64) error {
	pieces := fs.appendStripeRange(fs.stripeScratch[:0], blk, count)
	fs.stripeScratch = pieces
	for _, p := range pieces {
		var tried []int
		for {
			r, obj, ok := fs.steerReadLocked(f, p.ostIdx, tried)
			if !ok {
				return fmt.Errorf("pfs: read [%d,+%d): no readable replica for component %d",
					blk, count, p.ostIdx)
			}
			err := fs.ostc[r].Read(obj, p.logical, p.count)
			if err == nil {
				break
			}
			if !fs.failoverLocked(err, f, p.ostIdx, r) {
				return err
			}
			tried = append(tried, r)
		}
	}
	return nil
}

// Truncate cuts the file to sizeBlocks, freeing the mappings beyond the
// boundary on every live copy of every component; members on down servers
// miss the mutation and go stale.
func (h *File) Truncate(sizeBlocks int64) error {
	if sizeBlocks < 0 {
		return fmt.Errorf("pfs: invalid truncate to %d", sizeBlocks)
	}
	fs := h.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("truncate")
	defer fs.endOpLocked(sp)
	// Truncate is a flush barrier: dirty blocks drain first, then the
	// servers shrink, then the cache drops the now-stale tail.
	if err := fs.flushFileLocked(h.f, "truncate-barrier", sp); err != nil {
		return err
	}
	for c := range h.f.objects {
		n := fs.componentBlocks(sizeBlocks, c)
		if err := fs.eachMemberLocked(h.f, c, true, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].Truncate(obj, n)
		}); err != nil {
			return err
		}
	}
	if fs.cache != nil {
		fs.cache.Truncate(cache.FileID(h.f.ino), sizeBlocks)
	}
	return nil
}

// Fsync forces the file's buffered writes (under delayed allocation) and
// queued device I/O to storage on every live copy — the explicit sync
// whose frequency decides whether delayed allocation can coalesce. Skipping
// a down server is harmless: its copy is already stale for the writes being
// forced.
func (h *File) Fsync() error {
	fs := h.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("fsync")
	defer fs.endOpLocked(sp)
	// Fsync is a flush barrier: every cached dirty block reaches the
	// servers before their own buffers are forced.
	if err := fs.flushFileLocked(h.f, "fsync-barrier", sp); err != nil {
		return err
	}
	for c := range h.f.objects {
		if err := fs.eachMemberLocked(h.f, c, false, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].Fsync(obj)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the file's temporary reservations on every live copy and
// records its layout summary at the MDS from one clean replica per
// component.
func (h *File) Close() error {
	fs := h.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp := fs.startOpLocked("close")
	defer fs.endOpLocked(sp)
	// Close is a flush barrier: the layout summary recorded at the MDS
	// must describe the data as the servers hold it.
	if err := fs.flushFileLocked(h.f, "close-barrier", sp); err != nil {
		return err
	}
	var layout []extent.Extent
	for c := range h.f.objects {
		if err := fs.eachMemberLocked(h.f, c, false, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].CloseObject(obj)
		}); err != nil {
			return err
		}
		for {
			r, obj, ok := fs.bookReplicaLocked(h.f, c)
			if !ok {
				break // fully degraded component: no summary contribution
			}
			exts, err := fs.ostc[r].Extents(obj)
			if err != nil {
				if fs.failoverLocked(err, h.f, c, r) {
					continue
				}
				return err
			}
			// The MDS records a bounded per-component summary that fits
			// the inode tail in the common case ("in most cases, the
			// file layout mapping is stuffed in the inode"); the full
			// maps stay at the servers.
			if len(exts) > 0 && len(layout) < extent.InlineSummary {
				layout = append(layout, extent.Extent{
					Logical:  int64(c),
					Physical: exts[0].Physical,
					Count:    exts[0].Count,
				})
			}
			h.f.extents += len(exts)
			break
		}
	}
	return fs.mdsc.SetLayout(h.f.ino, layout)
}
