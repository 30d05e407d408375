// Package mds implements the Redbud metadata server: the RPC-facing layer
// over the metadata file system that aggregates common operation pairs
// (readdir+stat, open+getlayout) and carries the CPU cost model behind
// Table I ("the less extents in the parallel file systems to be operated,
// such as merging and indexing, the less CPU load involved in MDS").
package mds

import (
	"fmt"

	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/replica"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Config holds the MDS construction parameters.
type Config struct {
	// FS configures the backing metadata file system.
	FS mdfs.Config
	// RequestNs is the fixed CPU cost of servicing one metadata RPC.
	RequestNs sim.Ns
	// ExtentOpNs is the CPU cost of one layout-mapping unit operated on
	// (inserted, merged, indexed, or returned).
	ExtentOpNs sim.Ns
}

// DefaultConfig returns an MDS over the given layout with the CPU model
// used throughout the evaluation.
func DefaultConfig(layout mdfs.Layout) Config {
	return Config{
		FS:         mdfs.DefaultConfig(layout),
		RequestNs:  8 * sim.Microsecond,
		ExtentOpNs: 2 * sim.Microsecond,
	}
}

// Stats counts MDS activity.
type Stats struct {
	// RPCs is the number of metadata requests serviced.
	RPCs int64
	// ExtentOps is the number of layout-mapping units processed.
	ExtentOps int64
	// CPUNs is the accumulated CPU time of the request-processing model.
	CPUNs sim.Ns
}

// Server is one metadata server. Like the backing FS it is not safe for
// concurrent use. The server models only
// its own work — CPU and metadata storage; the network cost of reaching
// it is charged by the rpc transport that fronts it.
type Server struct {
	cfg   Config
	fs    *mdfs.FS
	stats Stats

	// replicaSets is the replica layout table of replicated mounts: one
	// replica set (distinct OST indices) per stripe component, keyed by
	// inode. Unreplicated mounts never touch it.
	replicaSets map[inode.Ino][][]int

	// rpcHist, when attached, observes the modeled service cost (CPU) of
	// every RPC. tracer records per-RPC spans on the simulated timeline;
	// traceParent is the span of the request currently being serviced
	// (the rpc connection sets it).
	rpcHist     *telemetry.Histogram
	tracer      *telemetry.Tracer
	traceParent telemetry.SpanID
}

// New builds a metadata server, formatting its file system.
func New(cfg Config) (*Server, error) {
	if cfg.RequestNs == 0 && cfg.ExtentOpNs == 0 {
		def := DefaultConfig(cfg.FS.Layout)
		cfg.RequestNs = def.RequestNs
		cfg.ExtentOpNs = def.ExtentOpNs
	}
	fs, err := mdfs.New(cfg.FS)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, fs: fs}, nil
}

// FS exposes the backing metadata file system.
func (s *Server) FS() *mdfs.FS { return s.fs }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.stats }

// ResetStats zeroes the CPU/RPC counters for a new measurement phase.
func (s *Server) ResetStats() { s.stats = Stats{} }

// Root returns the root directory inode.
func (s *Server) Root() inode.Ino { return s.fs.Root() }

// Span layer, span names (one per metadata RPC) and attribute key, interned
// once per process.
var (
	layerMDS             = telemetry.Intern("mds")
	spanMkdir            = telemetry.Intern("mkdir")
	spanCreate           = telemetry.Intern("create")
	spanLookup           = telemetry.Intern("lookup")
	spanStatName         = telemetry.Intern("stat-name")
	spanUtime            = telemetry.Intern("utime")
	spanUnlink           = telemetry.Intern("unlink")
	spanRmdir            = telemetry.Intern("rmdir")
	spanRename           = telemetry.Intern("rename")
	spanReaddirplus      = telemetry.Intern("readdirplus")
	spanOpenGetlayout    = telemetry.Intern("open-getlayout")
	spanSetlayout        = telemetry.Intern("setlayout")
	spanPlaceReplicas    = telemetry.Intern("place-replicas")
	spanGetReplicaLayout = telemetry.Intern("get-replica-layout")
	spanSetReplicaLayout = telemetry.Intern("set-replica-layout")
	spanExtentChurn      = telemetry.Intern("extent-churn")
	attrUnits            = telemetry.Intern("units")
)

// rpc charges the fixed per-request CPU cost, observing it into the RPC
// histogram and recording a named span when telemetry is attached. The
// network round trip that used to be folded in here is now charged by the
// rpc transport, outside the server.
func (s *Server) rpc(name telemetry.Sym) {
	s.stats.RPCs++
	s.stats.CPUNs += s.cfg.RequestNs
	cost := s.cfg.RequestNs
	if s.rpcHist != nil {
		s.rpcHist.Observe(cost)
	}
	if s.tracer != nil {
		sp := s.tracer.Begin(layerMDS, name, s.traceParent)
		s.tracer.Advance(cost)
		sp.End()
	}
}

// Instrument publishes the server's counters and a per-RPC latency
// histogram into the registry, and recursively instruments the components
// it owns: the metadata store's disk and the write-ahead journal.
func (s *Server) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	s.rpcHist = reg.Histogram("mds_rpc_ns", labels)
	reg.CounterFunc("mds_rpcs", labels, func() int64 { return s.stats.RPCs })
	reg.CounterFunc("mds_extent_ops", labels, func() int64 { return s.stats.ExtentOps })
	reg.CounterFunc("mds_cpu_ns", labels, func() int64 { return s.stats.CPUNs })
	store := s.fs.Store()
	store.Disk().Instrument(reg, labels.With("layer", "disk"))
	store.Journal().Instrument(reg, labels.With("layer", "journal"))
}

// SetTracer attaches (or with nil detaches) the span tracer.
func (s *Server) SetTracer(t *telemetry.Tracer) { s.tracer = t }

// SetTraceParent declares the span under which subsequent RPCs nest; zero
// clears it.
func (s *Server) SetTraceParent(id telemetry.SpanID) { s.traceParent = id }

// extentWork charges the CPU cost of n mapping units.
func (s *Server) extentWork(n int) {
	s.stats.ExtentOps += int64(n)
	s.stats.CPUNs += sim.Ns(n) * s.cfg.ExtentOpNs
}

// Mkdir creates a directory.
func (s *Server) Mkdir(parent inode.Ino, name string) (inode.Ino, error) {
	s.rpc(spanMkdir)
	return s.fs.Mkdir(parent, name)
}

// Create creates a file.
func (s *Server) Create(parent inode.Ino, name string) (inode.Ino, error) {
	s.rpc(spanCreate)
	return s.fs.Create(parent, name)
}

// Lookup resolves a name.
func (s *Server) Lookup(parent inode.Ino, name string) (inode.Ino, error) {
	s.rpc(spanLookup)
	return s.fs.Lookup(parent, name)
}

// StatName resolves and reads an inode — the readdir-stat pair's unit.
func (s *Server) StatName(parent inode.Ino, name string) (inode.Inode, error) {
	s.rpc(spanStatName)
	return s.fs.StatName(parent, name)
}

// Utime updates an mtime.
func (s *Server) Utime(ino inode.Ino) error {
	s.rpc(spanUtime)
	return s.fs.Utime(ino)
}

// Unlink removes a file, and on a replicated mount its replica layout.
func (s *Server) Unlink(parent inode.Ino, name string) error {
	s.rpc(spanUnlink)
	var ino inode.Ino
	if s.replicaSets != nil {
		ino, _ = s.fs.Child(parent, name)
	}
	if err := s.fs.Unlink(parent, name); err != nil {
		return err
	}
	delete(s.replicaSets, ino)
	return nil
}

// Rmdir removes an empty directory.
func (s *Server) Rmdir(parent inode.Ino, name string) error {
	s.rpc(spanRmdir)
	return s.fs.Rmdir(parent, name)
}

// Rename moves an entry, returning its (possibly new) inode number.
func (s *Server) Rename(srcParent inode.Ino, name string, dstParent inode.Ino, newName string) (inode.Ino, error) {
	s.rpc(spanRename)
	return s.fs.Rename(srcParent, name, dstParent, newName)
}

// ReaddirPlus is the aggregated readdir+stat: "a readdirplus extension is
// proposed and supported by most parallel file systems to fetch the entire
// directory, including inode contents, in a single MDS request".
func (s *Server) ReaddirPlus(parent inode.Ino) ([]inode.Inode, error) {
	s.rpc(spanReaddirplus)
	recs, err := s.fs.ReaddirPlus(parent)
	if err != nil {
		return nil, err
	}
	s.extentWork(len(recs))
	return recs, nil
}

// OpenGetLayout is the aggregated open+getlayout: the client acquires the
// file layout in the same request that opens the file, as pNFS block mode
// and Lustre do.
func (s *Server) OpenGetLayout(parent inode.Ino, name string) (inode.Ino, []extent.Extent, error) {
	s.rpc(spanOpenGetlayout)
	ino, err := s.fs.Lookup(parent, name)
	if err != nil {
		return 0, nil, err
	}
	exts, err := s.fs.GetLayout(ino)
	if err != nil {
		return 0, nil, err
	}
	s.extentWork(len(exts))
	return ino, exts, nil
}

// SetLayout records a file's data placement as reported by the IO servers,
// charging the mapping-maintenance CPU.
func (s *Server) SetLayout(ino inode.Ino, exts []extent.Extent) error {
	s.rpc(spanSetlayout)
	s.extentWork(len(exts))
	return s.fs.SetLayout(ino, exts)
}

// NoteExtentChurn charges mapping-maintenance CPU for extents manipulated
// during writes (merging, indexing) without an explicit SetLayout RPC.
func (s *Server) NoteExtentChurn(n int) {
	if s.tracer != nil && n > 0 {
		sp := s.tracer.Begin(layerMDS, spanExtentChurn, s.traceParent)
		s.tracer.Advance(sim.Ns(n) * s.cfg.ExtentOpNs)
		sp.AnnotateInt(attrUnits, int64(n))
		sp.End()
	}
	s.extentWork(n)
}

// CPUUtilization returns the CPU model's utilization over an elapsed
// simulated duration.
func (s *Server) CPUUtilization(elapsed sim.Ns) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(s.stats.CPUNs) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Sync flushes the metadata file system.
func (s *Server) Sync() error { return s.fs.Sync() }

// PlaceReplicas runs the spread policy over the client's capacity/load
// observations and records the resulting per-component replica sets in
// the layout table. The mapping work scales with the entries placed, like
// every other layout operation.
func (s *Server) PlaceReplicas(ino inode.Ino, comps, rf int, in []replica.PlaceInput) ([][]int, error) {
	s.rpc(spanPlaceReplicas)
	sets, err := replica.Spread(rf, comps, in)
	if err != nil {
		return nil, err
	}
	s.extentWork(comps * rf)
	if s.replicaSets == nil {
		s.replicaSets = make(map[inode.Ino][][]int)
	}
	s.replicaSets[ino] = sets
	return sets, nil
}

// GetReplicaLayout returns a file's recorded replica sets.
func (s *Server) GetReplicaLayout(ino inode.Ino) ([][]int, error) {
	s.rpc(spanGetReplicaLayout)
	sets, ok := s.replicaSets[ino]
	if !ok {
		return nil, fmt.Errorf("mds: inode %d has no replica layout", uint64(ino))
	}
	var n int
	for _, set := range sets {
		n += len(set)
	}
	s.extentWork(n)
	return sets, nil
}

// SetReplicaLayout replaces one component's replica set — the commit a
// completed re-replication publishes.
func (s *Server) SetReplicaLayout(ino inode.Ino, comp int, replicas []int) error {
	s.rpc(spanSetReplicaLayout)
	sets, ok := s.replicaSets[ino]
	if !ok || comp < 0 || comp >= len(sets) {
		return fmt.Errorf("mds: inode %d has no replica component %d", uint64(ino), comp)
	}
	s.extentWork(len(replicas))
	sets[comp] = append([]int(nil), replicas...)
	return nil
}
