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
	"errors"
	"fmt"
	"strings"

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
	// Cache tunes the client block cache every mount carries between the
	// file operations and the RPC clients: re-reads of cached blocks cost
	// no RPCs, adjacent dirty blocks flush as one coalesced write, and
	// sequential readers trigger adaptive readahead. Nil (the default) is
	// capacity 0, a write-through pass-through that holds nothing.
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

// file is one open or known file: its MDS inode and name, its per-OST
// objects and their cached extent counts (extents.go).
type file struct {
	ino      inode.Ino
	parent   inode.Ino
	name     string
	objects  []ost.ObjectID // index = OST
	counts   []extentCount  // index = component
	sizeHint int64          // declared size in blocks (static policy)
	gone     bool           // dropped from the mount: its handles are stale
}

// FS is one mounted Redbud instance. All client↔server traffic flows
// through the rpc clients: one method per op, each one call on a
// connection that charges the GbE metadata link and the per-OST
// FibreChannel fabric. The server handles (mds, osts) remain only for
// measurement and for the server-local defragmentation engine.
//
// An FS is not safe for concurrent use, like a bufio.Writer, and neither is
// anything under internal/: a process drives its mounts, and the registries
// and tracers they report into, from one goroutine. The paper's concurrent
// clients and ranks are streams interleaved on the simulated timeline, not
// goroutines. Everything below the mount — rpc, cache, replica, ost,
// defrag, core, alloc, iosched, disk, netsim, mds — belongs to it and holds
// no lock.
type FS struct {
	cfg Config

	mds     *mds.Server
	osts    []*ost.Server
	mdsLink *netsim.Link   // GbE path from clients to the MDS
	fabric  *netsim.Fabric // per-OST FibreChannel data paths
	conn    *rpc.Conn      // one call path: retry, blackholes, faults, wire
	mdsc    *rpc.MDSClient
	ostc    []*rpc.OSTClient
	defrag  *defrag.Engine   // online defragmentation, one controller per OST
	cache   *cache.Cache     // client block cache, a pass-through at capacity 0
	rep     *replica.Manager // replica table, nil at RF <= 1
	files   map[inode.Ino]*file
	nextObj uint64
	// countGen[i] stamps the extent counts server i reports; bumping it
	// stops the mount trusting any it cached (extents.go).
	countGen []uint64

	// Reusable fan-out scratch.
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
		cfg:      cfg,
		mds:      srv,
		mdsLink:  netsim.NewLink(netsim.GbE()),
		fabric:   netsim.NewFabric(netsim.FC400(), cfg.OSTs),
		conn:     rpc.NewConn(cfg.RPC),
		files:    make(map[inode.Ino]*file),
		countGen: make([]uint64, cfg.OSTs),
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
	fs.mdsc = rpc.NewMDSClient(fs.conn, mdsAddr, srv, fs.mdsLink)
	factory := fs.policyFactory()
	for i, osrv := range fs.osts {
		fs.ostc = append(fs.ostc, rpc.NewOSTClient(fs.conn, ostAddr(i), osrv, factory,
			fs.fabric.Link(i), cfg.OST.Disk.BlockSize))
		fs.selfSets = append(fs.selfSets, []int{i})
		fs.selfMembers = append(fs.selfMembers, []replica.MemberState{{OST: i}})
	}
	dc := defrag.DefaultConfig()
	if cfg.Defrag != nil {
		dc = *cfg.Defrag
	}
	fs.defrag = defrag.NewEngine(dc, fs.osts...)
	fs.defrag.OnRemap(fs.distrust)
	var cc cache.Config
	if cfg.Cache != nil {
		cc = *cfg.Cache
	}
	fs.cache = cache.New(cc, (*cacheStore)(fs))
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
	pl := labels.With("layer", "pfs")
	fs.writeHist = reg.Histogram("pfs_write_ns", pl)
	fs.readHist = reg.Histogram("pfs_read_ns", pl)
	fs.writeSeries = reg.Series("pfs_write_blocks", pl, 0, 0)
	fs.readSeries = reg.Series("pfs_read_blocks", pl, 0, 0)
	fs.extentSeries = reg.Series("pfs_file_extents", pl, 0, 0)
	fs.conn.Instrument(reg, labels.With("layer", "rpc"))
	fs.mds.Instrument(reg, labels.With("layer", "mds"))
	fs.mdsLink.Instrument(reg, labels.With("layer", "net").With("link", "mds"))
	for i, srv := range fs.osts {
		srv.Instrument(reg, labels.With("layer", "ost").With("ost", fmt.Sprint(i)))
	}
	fs.fabric.Instrument(reg, labels.With("layer", "net"))
	fs.defrag.Instrument(reg, labels.With("layer", "defrag"))
	fs.cache.Instrument(reg, labels.With("layer", "cache"))
	if fs.rep != nil {
		fs.rep.Instrument(reg, labels.With("layer", "replica"))
	}
}

// SetTracer attaches (or with nil detaches) the span tracer to the mount
// and every server beneath it.
func (fs *FS) SetTracer(t *telemetry.Tracer) {
	fs.tracer = t
	fs.conn.SetTracer(t)
	fs.mds.SetTracer(t)
	for _, srv := range fs.osts {
		srv.SetTracer(t)
	}
	fs.defrag.SetTracer(t)
	// Stamp cache events on the mount's timeline (t.Now is nil-safe, so a
	// detached tracer just pins them at time zero).
	fs.cache.SetClock(t.Now)
	if fs.rep != nil {
		fs.rep.SetClock(t.Now)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (fs *FS) Tracer() *telemetry.Tracer {
	return fs.tracer
}

// Span layers, span names and attribute keys, interned once per process.
var (
	layerPfs            = telemetry.Intern("pfs")
	layerCache          = telemetry.Intern("cache")
	spanMkdir           = telemetry.Intern("mkdir")
	spanCreate          = telemetry.Intern("create")
	spanOpen            = telemetry.Intern("open")
	spanDelete          = telemetry.Intern("delete")
	spanWrite           = telemetry.Intern("write")
	spanRead            = telemetry.Intern("read")
	spanTruncate        = telemetry.Intern("truncate")
	spanFsync           = telemetry.Intern("fsync")
	spanClose           = telemetry.Intern("close")
	spanDeleteBarrier   = telemetry.Intern("delete-barrier")
	spanTruncateBarrier = telemetry.Intern("truncate-barrier")
	spanFsyncBarrier    = telemetry.Intern("fsync-barrier")
	spanCloseBarrier    = telemetry.Intern("close-barrier")
	spanRepairStep      = telemetry.Intern("repair-step")
	attrBlocks          = telemetry.Intern("blocks")
)

// startOp opens the root "pfs" span of one client operation and points the
// rpc connection at it, so every rpc span (and the server and network spans
// beneath) nests underneath. A nil tracer makes the whole chain a no-op.
func (fs *FS) startOp(name telemetry.Sym) telemetry.ActiveSpan {
	sp := fs.tracer.Begin(layerPfs, name, 0)
	fs.conn.SetTraceParent(sp.ID())
	return sp
}

// endOp closes an operation span and clears the connection's trace parent.
func (fs *FS) endOp(sp telemetry.ActiveSpan) {
	fs.conn.SetTraceParent(0)
	sp.End()
}

// observeOp records one operation's simulated duration — the trace
// clock's advance since begin — into the histogram. Without a tracer there
// is no per-op timeline, so nothing is observed.
func (fs *FS) observeOp(h *telemetry.Histogram, begin sim.Ns) {
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

// Cache returns the client block cache. It is never nil: a mount without
// Config.Cache has a pass-through of capacity 0.
func (fs *FS) Cache() *cache.Cache { return fs.cache }

// Replication returns the replica manager, or nil when every replica set
// is a set of one (RF <= 1, the default) and there is nothing to manage.
func (fs *FS) Replication() *replica.Manager { return fs.rep }

// cacheStore is the mount as the cache's backing store: the striped write
// and read paths, WriteBack and Fetch below. They run only inside the cache
// calls a file operation makes, so they never re-enter the cache.
type cacheStore FS

// inCache runs call, a cache operation of op, in a "cache" span under op
// with the rpc connection pointed at it, so write-back and fetch RPCs nest
// pfs → cache → rpc. A pass-through holds no block and gets no span: the
// one place pfs asks whether blocks are cached.
func (fs *FS) inCache(name telemetry.Sym, op telemetry.ActiveSpan, call func() error) error {
	if fs.cache.Config().CapacityBlocks <= 0 {
		return call()
	}
	sp := fs.tracer.Begin(layerCache, name, op.ID())
	fs.conn.SetTraceParent(sp.ID())
	err := call()
	fs.conn.SetTraceParent(op.ID())
	sp.End()
	return err
}

// flushFile is the per-file barrier: every dirty block of f is written
// back before the caller's own RPCs proceed.
func (fs *FS) flushFile(f *file, name telemetry.Sym, op telemetry.ActiveSpan) error {
	// Crash point: power fails as the barrier starts — nothing written
	// back, nothing acknowledged.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheBarrierFlush, 0); ok {
		fs.cfg.Crash.Kill()
	}
	if err := fs.inCache(name, op, func() error {
		return fs.cache.FlushFile(cache.FileID(f.ino))
	}); err != nil {
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
	sp := fs.startOp(spanMkdir)
	defer fs.endOp(sp)
	return fs.mdsc.Mkdir(parent, name)
}

// Create creates a file striped across the IO servers. sizeHintBlocks
// declares the expected file size (in file-system blocks); the static
// policy fallocates it, other policies ignore it.
func (fs *FS) Create(parent inode.Ino, name string, sizeHintBlocks int64) (*File, error) {
	sp := fs.startOp(spanCreate)
	defer fs.endOp(sp)
	ino, err := fs.mdsc.Create(parent, name)
	if err != nil {
		return nil, err
	}
	f := &file{ino: ino, parent: parent, name: name, sizeHint: sizeHintBlocks}
	if err := fs.createObjects(f); err != nil {
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
	sp := fs.startOp(spanOpen)
	defer fs.endOp(sp)
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
	sp := fs.startOp(spanDelete)
	defer fs.endOp(sp)
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
	if err := fs.flushFile(f, spanDeleteBarrier, sp); err != nil {
		return err
	}
	// Copies on down servers are orphaned (the revived server's object is
	// garbage the simulator tolerates).
	for c := range f.objects {
		if err := fs.eachMember(f, c, false, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].Delete(obj)
		}); err != nil {
			return err
		}
	}
	fs.drop(f)
	return nil
}

// drop removes a file from the mount: its replica state, its cached
// blocks and its file-table entry. Its handles go stale.
func (fs *FS) drop(f *file) {
	fs.forget(f)
	fs.cache.Drop(cache.FileID(f.ino))
	delete(fs.files, f.ino)
	f.gone = true
}

// ErrStale is the error of an op on a handle whose file the mount no
// longer has.
var ErrStale = errors.New("no such file on the mount (deleted, or its create lost in a crash)")

// stale returns the error of an op on a handle whose file the mount
// dropped, nil for a live handle.
func (h *File) stale() error {
	if h.f.gone {
		return fmt.Errorf("pfs: %s: %w", h.name, ErrStale)
	}
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
// OST i: a full stripe unit for each of the file's full stripes that is
// i's, plus the partial last stripe when that one is i's.
func (fs *FS) componentBlocks(total int64, i int) int64 {
	su, n := fs.cfg.StripeBlocks, int64(len(fs.osts))
	full := total / su
	units := full / n
	if int64(i) < full%n {
		units++
	}
	blocks := units * su
	if full%n == int64(i) {
		blocks += total % su
	}
	return blocks
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
	for i := range fs.ostc {
		if fs.down(i) {
			continue // no point paying retry timeouts on a suspected server
		}
		_, _ = fs.ostc[i].Flush()
		fs.buffersFlushed(i)
	}
}

// Sync flushes the IO servers and the metadata server. It is the
// mount-wide flush barrier: every file's dirty blocks are written back
// before the servers are forced.
func (fs *FS) Sync() error {
	// Crash point: power fails at the start of the mount-wide flush
	// barrier, with every file's dirty blocks still client-side.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheSyncFlush, 0); ok {
		fs.cfg.Crash.Kill()
	}
	if err := fs.cache.Flush(); err != nil {
		return err
	}
	fs.Flush()
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
// components — the paper's Table I metric — asking the servers for every
// component, whose answers refresh the count cache.
func (fs *FS) TotalExtents(f *File) (int, error) {
	return fs.totalExtents(f.f, false)
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

// checkRange rejects a file range that is empty, starts below zero, or ends
// past the mount's data capacity (OSTs × OST.Blocks): no object can address
// such a range, and its end may not even fit in an int64.
func (fs *FS) checkRange(op string, blk, count int64) error {
	if count <= 0 || blk < 0 {
		return fmt.Errorf("pfs: invalid %s [%d,+%d)", op, blk, count)
	}
	if capacity := int64(len(fs.osts)) * fs.cfg.OST.Blocks; count > capacity || blk > capacity-count {
		return fmt.Errorf("pfs: %s [%d,+%d) ends past the mount's %d data blocks", op, blk, count, capacity)
	}
	return nil
}

// Write stores count blocks at file-logical block blk on behalf of stream.
func (h *File) Write(stream core.StreamID, blk, count int64) error {
	fs := h.fs
	if err := h.stale(); err != nil {
		return err
	}
	if err := fs.checkRange("write", blk, count); err != nil {
		return err
	}
	sp := fs.startOp(spanWrite)
	sp.AnnotateInt(attrBlocks, int64(count))
	begin := fs.tracer.Now()
	defer func() {
		fs.observeOp(fs.writeHist, begin)
		fs.writeSeries.Add(fs.tracer.Now(), count)
		fs.endOp(sp)
	}()
	return fs.inCache(spanWrite, sp, func() error {
		return fs.cache.Write(cache.FileID(h.f.ino), stream, blk, count)
	})
}

// WriteBack stores count blocks at file-logical block blk of inode id
// across the stripe: one coalesced dirty run, or a pass-through cache's
// whole write, extent-churn accounting included: the change in the file's
// extent count, which the count cache answers (extents.go), each piece's
// reply from its booked replica refreshing its component's entry. Each
// stripe piece fans out to every live replica of its component. One whose
// write fails at the transport layer is marked down and stale rather than
// failing the client write; the write errors only when a piece gets no
// acknowledgement at all. Application errors follow eachMember's rule: a
// stale member's is ignored (created while its server was down, it may
// never have got the object) and it stays stale for repair; a clean
// member's fails the write, after every member that already took the piece
// is marked stale — the client is told the piece failed, so no copy holding
// it may be read as current.
func (s *cacheStore) WriteBack(id cache.FileID, stream core.StreamID, blk, count int64) error {
	fs := (*FS)(s)
	f, ok := fs.files[inode.Ino(id)]
	if !ok {
		return fmt.Errorf("pfs: write-back for unknown inode %d", uint64(id))
	}
	// Crash point: the cache chose to write this dirty run back but the
	// RPCs never left the client — the blocks were only ever in volatile
	// client memory, so losing them is allowed until a barrier returns.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtCacheWriteback, count); ok {
		fs.cfg.Crash.Kill()
	}
	before, err := fs.totalExtents(f, true)
	if err != nil {
		return err
	}
	pieces := fs.appendStripeRange(fs.stripeScratch[:0], blk, count)
	fs.stripeScratch = pieces
	for _, p := range pieces {
		obj, targets, err := fs.writeTargets(f, p.ostIdx)
		if err != nil {
			return err
		}
		book, _, booked := fs.bookReplica(f, p.ostIdx)
		acks := 0
		for i, r := range targets {
			n, err := fs.ostc[r].Write(obj, stream, p.logical, p.count)
			fs.buffersFlushed(r)
			if booked && r == book {
				if err != nil {
					f.dropCount(p.ostIdx)
				} else {
					fs.noteCount(f, p.ostIdx, r, n)
				}
			}
			if err != nil {
				if fs.stale(err, f, p.ostIdx, r) || fs.memberStale(f, p.ostIdx, r) {
					continue
				}
				for _, took := range targets[:i] { // empty in a set of one
					fs.rep.MarkStale(f.ino, p.ostIdx, took)
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
	after, err := fs.totalExtents(f, true)
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
	fs.extentSeries.Set(fs.tracer.Now(), int64(after))
	return nil
}

// Read fetches count blocks at file-logical block blk.
func (h *File) Read(blk, count int64) error {
	fs := h.fs
	if err := h.stale(); err != nil {
		return err
	}
	if err := fs.checkRange("read", blk, count); err != nil {
		return err
	}
	sp := fs.startOp(spanRead)
	sp.AnnotateInt(attrBlocks, int64(count))
	begin := fs.tracer.Now()
	defer func() {
		fs.observeOp(fs.readHist, begin)
		fs.readSeries.Add(fs.tracer.Now(), count)
		fs.endOp(sp)
	}()
	return fs.inCache(spanRead, sp, func() error {
		return fs.cache.Read(cache.FileID(h.f.ino), blk, count)
	})
}

// Fetch reads count blocks at file-logical block blk of inode id across
// the stripe: one missing (possibly readahead-extended) run, or a
// pass-through cache's whole read. Each stripe piece is served by one
// steered replica: the least-loaded clean live copy, retried on the
// next-best copy when the pick fails at the transport layer.
func (s *cacheStore) Fetch(id cache.FileID, blk, count int64) error {
	fs := (*FS)(s)
	f, ok := fs.files[inode.Ino(id)]
	if !ok {
		return fmt.Errorf("pfs: fetch for unknown inode %d", uint64(id))
	}
	pieces := fs.appendStripeRange(fs.stripeScratch[:0], blk, count)
	fs.stripeScratch = pieces
	for _, p := range pieces {
		var tried []int
		for {
			r, obj, ok := fs.steerRead(f, p.ostIdx, tried)
			if !ok {
				return fmt.Errorf("pfs: read [%d,+%d): no readable replica for component %d",
					blk, count, p.ostIdx)
			}
			err := fs.ostc[r].Read(obj, p.logical, p.count)
			fs.objectFlushed(f, p.ostIdx, r)
			if err == nil {
				break
			}
			if !fs.failover(err, f, p.ostIdx, r) {
				return err
			}
			tried = append(tried, r)
		}
	}
	return nil
}

// Truncate cuts the file to sizeBlocks, freeing the mappings beyond the
// boundary on every live copy of every component; members on down servers
// miss the mutation and go stale. A size below zero or past the mount's
// data capacity (OSTs × OST.Blocks) is rejected, as checkRange rejects
// such a write.
func (h *File) Truncate(sizeBlocks int64) error {
	fs := h.fs
	if err := h.stale(); err != nil {
		return err
	}
	if capacity := int64(len(fs.osts)) * fs.cfg.OST.Blocks; sizeBlocks < 0 || sizeBlocks > capacity {
		return fmt.Errorf("pfs: invalid truncate to %d (the mount has %d data blocks)", sizeBlocks, capacity)
	}
	sp := fs.startOp(spanTruncate)
	defer fs.endOp(sp)
	// Truncate is a flush barrier: dirty blocks drain first, then the
	// servers shrink, then the cache drops the now-stale tail.
	if err := fs.flushFile(h.f, spanTruncateBarrier, sp); err != nil {
		return err
	}
	for c := range h.f.objects {
		n := fs.componentBlocks(sizeBlocks, c)
		h.f.dropCount(c)
		if err := fs.eachMember(h.f, c, true, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].Truncate(obj, n)
		}); err != nil {
			return err
		}
	}
	fs.cache.Truncate(cache.FileID(h.f.ino), sizeBlocks)
	return nil
}

// Fsync forces the file's buffered writes (under delayed allocation) and
// queued device I/O to storage on every live copy — the explicit sync
// whose frequency decides whether delayed allocation can coalesce. Skipping
// a down server is harmless: its copy is already stale for the writes being
// forced.
func (h *File) Fsync() error {
	fs := h.fs
	if err := h.stale(); err != nil {
		return err
	}
	sp := fs.startOp(spanFsync)
	defer fs.endOp(sp)
	// Fsync is a flush barrier: every cached dirty block reaches the
	// servers before their own buffers are forced.
	if err := fs.flushFile(h.f, spanFsyncBarrier, sp); err != nil {
		return err
	}
	for c := range h.f.objects {
		if err := fs.eachMember(h.f, c, false, func(r int, obj ost.ObjectID) error {
			err := fs.ostc[r].Fsync(obj)
			fs.objectFlushed(h.f, c, r)
			return err
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
	if err := h.stale(); err != nil {
		return err
	}
	sp := fs.startOp(spanClose)
	defer fs.endOp(sp)
	// Close is a flush barrier: the layout summary recorded at the MDS
	// must describe the data as the servers hold it.
	if err := fs.flushFile(h.f, spanCloseBarrier, sp); err != nil {
		return err
	}
	var layout []extent.Extent
	for c := range h.f.objects {
		if err := fs.eachMember(h.f, c, false, func(r int, obj ost.ObjectID) error {
			return fs.ostc[r].CloseObject(obj)
		}); err != nil {
			return err
		}
		for {
			r, obj, ok := fs.bookReplica(h.f, c)
			if !ok {
				break // fully degraded component: no summary contribution
			}
			exts, err := fs.ostc[r].Extents(obj)
			if err != nil {
				if fs.failover(err, h.f, c, r) {
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
			break
		}
	}
	return fs.mdsc.SetLayout(h.f.ino, layout)
}
