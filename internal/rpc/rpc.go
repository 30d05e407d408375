// Package rpc is the boundary between Redbud clients and the metadata/data
// servers. Every client↔MDS operation the mount sends (mkdir, create,
// lookup, unlink, open-getlayout, setlayout, sync, extent-churn, and the
// replica layout's place/get/set) and every client↔OST operation (object
// create/fallocate/delete/close, extent write/read, truncate, flush, fsync,
// extent queries, written runs) is one method of MDSClient or OSTClient:
// the method sizes its request, and hands Conn.Call a closure that runs the
// server call, keeps its results and returns the response size. Nothing is
// encoded — the wire model needs only the sizes — and Conn.Call is the only
// path from the PFS client into mds.Server and ost.Server.
//
// The seam is what direct method calls could never express. Conn.Call is
// the whole client side, one loop over attempts:
//
//   - Network charging lives in the connection, not the callees: each leg's
//     modeled wire size is charged to the server's netsim link (GbE for the
//     MDS, the per-client FibreChannel fabric for OSTs) and folded into the
//     simulated trace timeline.
//   - Crash blackholes one route until Revive: every attempt toward it is
//     lost, with or without a fault injector.
//   - With ClientConfig.Fault set, each attempt draws seeded, deterministic
//     variates for message drops, transient errors, and delays per op
//     class.
//   - The retry policy is the client-side timeout: a lost message costs the
//     caller the RPC timeout on the simulated clock, then is retried with
//     exponential backoff.
//   - Each route keeps a duplicate-request (replay) cache keyed by the
//     client-assigned XID and recording the outcome (response size and
//     error), so a retry of an executed-but-unacknowledged request is
//     answered from the record instead of re-executing — the classic
//     NFS-style reply cache that makes non-idempotent ops (create, unlink)
//     safe under response loss. The results the one execution wrote stay
//     with the caller, because retries never leave the one Call.
//   - The connection publishes layer=rpc telemetry: per-op call counters
//     and latency histograms, retry/timeout counters, fault counters, and
//     per-route replay-cache hits, plus "rpc" spans nested between the
//     client operation span and the server-side spans.
//
// Wire-size model. Metadata messages ride fixed 512-byte cells on the GbE
// control network: a message's size is its 64-byte header plus encoded body,
// rounded up to whole cells — so every common metadata RPC costs exactly one
// 512-byte cell each way, matching the fixed-size RPC model the evaluation
// was calibrated with, while bulk messages (long layouts and replica sets)
// grow with their payload. Data-plane messages model DMA bursts: the
// payload-bearing direction (the request of a write, the response of a read)
// carries exactly the payload bytes, and descriptors/acks are piggybacked on
// the control plane at zero wire cost — their handling cost is already part
// of the servers' fixed per-request CPU model. Zero-size messages charge
// nothing, which keeps the simulated figures byte-identical to the
// pre-seam direct-call model in the fault-free configuration.
package rpc

import (
	"fmt"

	"redbud/internal/telemetry"
)

// Encoded-field sizes of the modeled wire format.
const (
	// headerBytes is the fixed per-message envelope: op, xid, addresses,
	// status.
	headerBytes = 64
	// CellBytes is the metadata plane's transfer granularity; every
	// metadata message is rounded up to whole cells, so the common
	// single-cell RPC costs exactly 512 bytes each way.
	CellBytes = 512
	// inoBytes encodes an inode number.
	inoBytes = 8
	// i64Bytes encodes a block count, offset, or size field.
	i64Bytes = 8
	// extentBytes encodes one layout extent (logical, physical, count,
	// flags).
	extentBytes = 32
	// placeInputBytes encodes one OST's placement telemetry (index, free
	// blocks, busy time, liveness flag).
	placeInputBytes = 24
	// replicaIdxBytes encodes one replica-set member (an OST index).
	replicaIdxBytes = 4
)

// cells rounds a message body up to whole metadata cells, envelope
// included.
func cells(body int64) int64 {
	n := headerBytes + body
	return (n + CellBytes - 1) / CellBytes * CellBytes
}

// errRespSize is the response size of a failed request: a metadata status
// cell, or nothing on the data/control planes (failures there ride the
// piggybacked completion).
func errRespSize(op Op) int64 {
	if op.Class() == ClassMeta {
		return cells(0)
	}
	return 0
}

// Class groups ops by the network plane and charge model they use.
type Class int

// Op classes.
const (
	// ClassMeta is the metadata plane: GbE, request and response each
	// charged in 512-byte cells.
	ClassMeta Class = iota
	// ClassData is the data plane: FibreChannel, the payload-bearing
	// direction charged at exactly the payload size.
	ClassData
	// ClassControl is piggybacked control traffic (object lifecycle,
	// flushes, layout-churn notes): zero wire cost, the handling cost is
	// inside the servers' CPU/disk models.
	ClassControl
)

// String names the class for telemetry and fault configuration.
func (c Class) String() string {
	switch c {
	case ClassMeta:
		return "meta"
	case ClassData:
		return "data"
	default:
		return "control"
	}
}

// Op identifies one operation of the RPC catalog. Its name (String) is
// what telemetry and errors show; each op also has a span-name symbol,
// interned once per process.
type Op uint8

// Client↔MDS ops.
const (
	OpMkdir Op = iota
	OpCreate
	OpLookup
	OpUnlink
	OpOpenGetLayout
	OpSetLayout
	// OpMDSSync flushes the metadata journal; it rides the storage control
	// plane (ClassControl), not a client-visible metadata RPC.
	OpMDSSync
	// OpExtentChurn reports layout-mapping churn observed during writes; it
	// piggybacks on data-plane completions (ClassControl).
	OpExtentChurn
	// OpPlaceReplicas asks the MDS to place a file's replica sets: the
	// client ships its capacity/load observations, the server runs the
	// spread policy and records the result.
	OpPlaceReplicas
	// OpGetReplicaLayout fetches a file's replica sets at open.
	OpGetReplicaLayout
	// OpSetReplicaLayout updates one component's replica set after a
	// re-replication completes.
	OpSetReplicaLayout
)

// Client↔OST ops.
const (
	OpObjCreate Op = iota + OpSetReplicaLayout + 1
	OpObjFallocate
	OpObjWrite
	OpObjRead
	OpObjTruncate
	OpObjFsync
	OpObjFlush
	OpObjDelete
	OpObjClose
	OpObjExtCount
	OpObjExtents
	// OpObjWrittenRuns fetches the maximal runs of written logical blocks
	// — the copy manifest the re-replication engine repairs from.
	OpObjWrittenRuns

	numOps
)

// opNames names every op, indexed by Op.
var opNames = [numOps]string{
	OpMkdir:            "mkdir",
	OpCreate:           "create",
	OpLookup:           "lookup",
	OpUnlink:           "unlink",
	OpOpenGetLayout:    "open-getlayout",
	OpSetLayout:        "setlayout",
	OpMDSSync:          "mds-sync",
	OpExtentChurn:      "extent-churn",
	OpPlaceReplicas:    "place-replicas",
	OpGetReplicaLayout: "get-replica-layout",
	OpSetReplicaLayout: "set-replica-layout",
	OpObjCreate:        "obj-create",
	OpObjFallocate:     "obj-fallocate",
	OpObjWrite:         "obj-write",
	OpObjRead:          "obj-read",
	OpObjTruncate:      "obj-truncate",
	OpObjFsync:         "obj-fsync",
	OpObjFlush:         "obj-flush",
	OpObjDelete:        "obj-delete",
	OpObjClose:         "obj-close",
	OpObjExtCount:      "obj-extent-count",
	OpObjExtents:       "obj-extents",
	OpObjWrittenRuns:   "obj-written-runs",
}

// opSyms holds each op's span-name symbol, indexed by Op.
var opSyms = func() (syms [numOps]telemetry.Sym) {
	for op, name := range opNames {
		syms[op] = telemetry.Intern(name)
	}
	return syms
}()

// String returns the op's name.
func (o Op) String() string { return opNames[o] }

// Class returns the op's network plane.
func (o Op) Class() Class {
	switch o {
	case OpMkdir, OpCreate, OpLookup, OpUnlink, OpOpenGetLayout, OpSetLayout,
		OpPlaceReplicas, OpGetReplicaLayout, OpSetReplicaLayout:
		return ClassMeta
	case OpObjWrite, OpObjRead:
		return ClassData
	default:
		return ClassControl
	}
}

// ErrKind distinguishes RPC-layer failures from server-side application
// errors (which pass through Call untouched).
type ErrKind string

// RPC failure kinds.
const (
	// KindTimeout: the request or its response was lost and every retry
	// timed out.
	KindTimeout ErrKind = "timeout"
	// KindUnavailable: a transient transport/server failure, retriable.
	KindUnavailable ErrKind = "unavailable"
)

// Error is an RPC-layer failure.
type Error struct {
	Op   Op
	Addr string
	Kind ErrKind
}

// Error renders the failure.
func (e *Error) Error() string {
	return fmt.Sprintf("rpc: %s to %s: %s", e.Op, e.Addr, e.Kind)
}

// Transient reports whether a retry may succeed.
func (e *Error) Transient() bool { return e.Kind == KindUnavailable }
