// Package rpc is the explicit message boundary between Redbud clients and
// the metadata/data servers. Every client↔MDS operation (create, lookup,
// stat, utime, unlink, rename, readdir, readdirplus, open-getlayout,
// setlayout) and every client↔OST operation (object create/delete/close,
// extent write/read, truncate, flush, fsync) is a typed request/response
// pair sent through a Conn to a per-server Endpoint — the only path from the
// PFS client into mds.Server and ost.Server.
//
// The seam is what direct method calls could never express. Conn.Call is
// the whole client side, one loop over attempts:
//
//   - Network charging lives in the connection, not the callees: each
//     message's modeled wire size is charged to the server's netsim link
//     (GbE for the MDS, the per-client FibreChannel fabric for OSTs) and
//     folded into the simulated trace timeline.
//   - Crash blackholes one route until Revive: every attempt toward it is
//     lost, with or without a fault injector.
//   - With ClientConfig.Fault set, each attempt draws seeded, deterministic
//     variates for message drops, transient errors, and delays per op
//     class.
//   - The retry policy is the client-side timeout: a lost message costs the
//     caller the RPC timeout on the simulated clock, then is retried with
//     exponential backoff.
//   - Endpoints keep a duplicate-request (replay) cache keyed by the
//     client-assigned XID, so a retry of an executed-but-unacknowledged
//     request returns the recorded response instead of re-executing — the
//     classic NFS-style reply cache that makes non-idempotent ops (create,
//     rename) safe under response loss.
//   - The connection publishes layer=rpc telemetry: per-op call counters
//     and latency histograms, retry/timeout counters, fault counters, and
//     per-endpoint replay-cache hits, plus "rpc" spans nested between the
//     client operation span and the server-side spans.
//
// Wire-size model. Metadata messages ride fixed 512-byte cells on the GbE
// control network: a message's size is its 64-byte header plus encoded body,
// rounded up to whole cells — so every common metadata RPC costs exactly one
// 512-byte cell each way, matching the fixed-size RPC model the evaluation
// was calibrated with, while bulk responses (large readdirplus listings)
// grow with their payload. Data-plane messages model DMA bursts: the
// payload-bearing direction (the request of a write, the response of a read)
// carries exactly the payload bytes, and descriptors/acks are piggybacked on
// the control plane at zero wire cost — their handling cost is already part
// of the servers' fixed per-request CPU model. Zero-size messages charge
// nothing, which keeps the simulated figures byte-identical to the
// pre-seam direct-call model in the fault-free configuration.
package rpc

import "fmt"

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

// Op identifies one operation of the RPC catalog.
type Op string

// Client↔MDS ops.
const (
	OpMkdir         Op = "mkdir"
	OpCreate        Op = "create"
	OpLookup        Op = "lookup"
	OpStat          Op = "stat"
	OpStatName      Op = "stat-name"
	OpUtime         Op = "utime"
	OpUnlink        Op = "unlink"
	OpRmdir         Op = "rmdir"
	OpRename        Op = "rename"
	OpReaddir       Op = "readdir"
	OpReaddirPlus   Op = "readdirplus"
	OpOpenGetLayout Op = "open-getlayout"
	OpSetLayout     Op = "setlayout"
	// OpMDSSync flushes the metadata journal; it rides the storage control
	// plane (ClassControl), not a client-visible metadata RPC.
	OpMDSSync Op = "mds-sync"
	// OpExtentChurn reports layout-mapping churn observed during writes; it
	// piggybacks on data-plane completions (ClassControl).
	OpExtentChurn Op = "extent-churn"
	// OpPlaceReplicas asks the MDS to place a file's replica sets: the
	// client ships its capacity/load observations, the server runs the
	// spread policy and records the result.
	OpPlaceReplicas Op = "place-replicas"
	// OpGetReplicaLayout fetches a file's replica sets at open.
	OpGetReplicaLayout Op = "get-replica-layout"
	// OpSetReplicaLayout updates one component's replica set after a
	// re-replication completes.
	OpSetReplicaLayout Op = "set-replica-layout"
)

// Client↔OST ops.
const (
	OpObjCreate    Op = "obj-create"
	OpObjFallocate Op = "obj-fallocate"
	OpObjWrite     Op = "obj-write"
	OpObjRead      Op = "obj-read"
	OpObjTruncate  Op = "obj-truncate"
	OpObjFsync     Op = "obj-fsync"
	OpObjFlush     Op = "obj-flush"
	OpObjDelete    Op = "obj-delete"
	OpObjClose     Op = "obj-close"
	OpObjExtCount  Op = "obj-extent-count"
	OpObjExtents   Op = "obj-extents"
	// OpObjWrittenRuns fetches the maximal runs of written logical blocks
	// — the copy manifest the re-replication engine repairs from.
	OpObjWrittenRuns Op = "obj-written-runs"
)

// Class returns the op's network plane.
func (o Op) Class() Class {
	switch o {
	case OpMkdir, OpCreate, OpLookup, OpStat, OpStatName, OpUtime, OpUnlink,
		OpRmdir, OpRename, OpReaddir, OpReaddirPlus, OpOpenGetLayout,
		OpSetLayout, OpPlaceReplicas, OpGetReplicaLayout, OpSetReplicaLayout:
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
	// KindBadRequest: the endpoint does not serve this message type.
	KindBadRequest ErrKind = "bad-request"
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
