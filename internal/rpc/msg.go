package rpc

import (
	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/ost"
	"redbud/internal/replica"
	"redbud/internal/sim"
)

// Msg is one wire message. WireSize is the number of bytes the message
// occupies on its network plane: metadata messages report whole 512-byte
// cells (header included), data messages report the payload they carry (or
// zero for the descriptor/ack direction), control messages report zero.
// The connection skips the link entirely for zero-size messages.
type Msg interface {
	WireSize() int64
}

// Request is a client-originated message that names its op for dispatch,
// sizing, fault classing, and telemetry.
type Request interface {
	Msg
	RPCOp() Op
}

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
	// streamBytes encodes a write-stream identity (client, PID).
	streamBytes = 8
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

// errWireSize is the response size of a failed request: a metadata status
// cell, or nothing on the data/control planes (failures there ride the
// piggybacked completion).
func errWireSize(op Op) int64 {
	if op.Class() == ClassMeta {
		return cells(0)
	}
	return 0
}

// ---- Client↔MDS messages ----

// MkdirReq creates a directory.
type MkdirReq struct {
	Parent inode.Ino
	Name   string
}

// RPCOp names the op.
func (*MkdirReq) RPCOp() Op { return OpMkdir }

// WireSize models the encoded request.
func (m *MkdirReq) WireSize() int64 { return cells(inoBytes + int64(len(m.Name))) }

// MkdirResp returns the new directory's inode.
type MkdirResp struct {
	Ino inode.Ino
}

// WireSize models the encoded response.
func (*MkdirResp) WireSize() int64 { return cells(inoBytes) }

// CreateReq creates a file at the MDS.
type CreateReq struct {
	Parent inode.Ino
	Name   string
}

// RPCOp names the op.
func (*CreateReq) RPCOp() Op { return OpCreate }

// WireSize models the encoded request.
func (m *CreateReq) WireSize() int64 { return cells(inoBytes + int64(len(m.Name))) }

// CreateResp returns the new file's inode.
type CreateResp struct {
	Ino inode.Ino
}

// WireSize models the encoded response.
func (*CreateResp) WireSize() int64 { return cells(inoBytes) }

// LookupReq resolves a name in a directory.
type LookupReq struct {
	Parent inode.Ino
	Name   string
}

// RPCOp names the op.
func (*LookupReq) RPCOp() Op { return OpLookup }

// WireSize models the encoded request.
func (m *LookupReq) WireSize() int64 { return cells(inoBytes + int64(len(m.Name))) }

// LookupResp returns the entry's inode, resolved through the MDS-internal
// relocation map (embedded-directory migrations) to its current identity
// — the server resolves it so clients never chase relocations with extra
// round trips.
type LookupResp struct {
	Resolved inode.Ino
}

// WireSize models the encoded response.
func (*LookupResp) WireSize() int64 { return cells(inoBytes) }

// UnlinkReq removes a file entry.
type UnlinkReq struct {
	Parent inode.Ino
	Name   string
}

// RPCOp names the op.
func (*UnlinkReq) RPCOp() Op { return OpUnlink }

// WireSize models the encoded request.
func (m *UnlinkReq) WireSize() int64 { return cells(inoBytes + int64(len(m.Name))) }

// UnlinkResp acknowledges the removal.
type UnlinkResp struct{}

// WireSize models the encoded response.
func (*UnlinkResp) WireSize() int64 { return cells(0) }

// OpenGetLayoutReq opens a file and acquires its layout in one request.
type OpenGetLayoutReq struct {
	Parent inode.Ino
	Name   string
}

// RPCOp names the op.
func (*OpenGetLayoutReq) RPCOp() Op { return OpOpenGetLayout }

// WireSize models the encoded request.
func (m *OpenGetLayoutReq) WireSize() int64 { return cells(inoBytes + int64(len(m.Name))) }

// OpenGetLayoutResp returns the inode and its layout summary.
type OpenGetLayoutResp struct {
	Ino    inode.Ino
	Layout []extent.Extent
}

// WireSize models the encoded response.
func (m *OpenGetLayoutResp) WireSize() int64 {
	return cells(inoBytes + int64(len(m.Layout))*extentBytes)
}

// SetLayoutReq records a file's data placement as reported by the IO
// servers.
type SetLayoutReq struct {
	Ino    inode.Ino
	Layout []extent.Extent
}

// RPCOp names the op.
func (*SetLayoutReq) RPCOp() Op { return OpSetLayout }

// WireSize models the encoded request.
func (m *SetLayoutReq) WireSize() int64 {
	return cells(inoBytes + int64(len(m.Layout))*extentBytes)
}

// SetLayoutResp acknowledges the layout update.
type SetLayoutResp struct{}

// WireSize models the encoded response.
func (*SetLayoutResp) WireSize() int64 { return cells(0) }

// MDSSyncReq flushes the metadata file system (control plane).
type MDSSyncReq struct{}

// RPCOp names the op.
func (*MDSSyncReq) RPCOp() Op { return OpMDSSync }

// WireSize models the piggybacked control message.
func (*MDSSyncReq) WireSize() int64 { return 0 }

// MDSSyncResp acknowledges the flush.
type MDSSyncResp struct{}

// WireSize models the piggybacked control message.
func (*MDSSyncResp) WireSize() int64 { return 0 }

// ExtentChurnReq reports layout-mapping churn observed during writes; it
// piggybacks on data-plane completions.
type ExtentChurnReq struct {
	Units int
}

// RPCOp names the op.
func (*ExtentChurnReq) RPCOp() Op { return OpExtentChurn }

// WireSize models the piggybacked control message.
func (*ExtentChurnReq) WireSize() int64 { return 0 }

// ExtentChurnResp acknowledges the report.
type ExtentChurnResp struct{}

// WireSize models the piggybacked control message.
func (*ExtentChurnResp) WireSize() int64 { return 0 }

// setsEntries counts the members across a file's replica sets, for wire
// sizing.
func setsEntries(sets [][]int) int64 {
	var n int64
	for _, s := range sets {
		n += int64(len(s))
	}
	return n
}

// PlaceReplicasReq asks the MDS to place RF replicas for each of a file's
// Comps stripe components. The client ships its per-OST capacity/load
// observations (and which servers it currently suspects dead) so the MDS
// scores targets without a server-to-server gossip plane.
type PlaceReplicasReq struct {
	Ino    inode.Ino
	Comps  int
	RF     int
	Inputs []replica.PlaceInput
}

// RPCOp names the op.
func (*PlaceReplicasReq) RPCOp() Op { return OpPlaceReplicas }

// WireSize models the encoded request.
func (m *PlaceReplicasReq) WireSize() int64 {
	return cells(inoBytes + 2*i64Bytes + int64(len(m.Inputs))*placeInputBytes)
}

// PlaceReplicasResp returns the per-component replica sets.
type PlaceReplicasResp struct {
	Sets [][]int
}

// WireSize models the encoded response.
func (m *PlaceReplicasResp) WireSize() int64 {
	return cells(setsEntries(m.Sets) * replicaIdxBytes)
}

// GetReplicaLayoutReq fetches a file's replica sets at open.
type GetReplicaLayoutReq struct {
	Ino inode.Ino
}

// RPCOp names the op.
func (*GetReplicaLayoutReq) RPCOp() Op { return OpGetReplicaLayout }

// WireSize models the encoded request.
func (*GetReplicaLayoutReq) WireSize() int64 { return cells(inoBytes) }

// GetReplicaLayoutResp carries the per-component replica sets.
type GetReplicaLayoutResp struct {
	Sets [][]int
}

// WireSize models the encoded response.
func (m *GetReplicaLayoutResp) WireSize() int64 {
	return cells(setsEntries(m.Sets) * replicaIdxBytes)
}

// SetReplicaLayoutReq updates one component's replica set after a
// re-replication completes.
type SetReplicaLayoutReq struct {
	Ino      inode.Ino
	Comp     int
	Replicas []int
}

// RPCOp names the op.
func (*SetReplicaLayoutReq) RPCOp() Op { return OpSetReplicaLayout }

// WireSize models the encoded request.
func (m *SetReplicaLayoutReq) WireSize() int64 {
	return cells(inoBytes + i64Bytes + int64(len(m.Replicas))*replicaIdxBytes)
}

// SetReplicaLayoutResp acknowledges the update.
type SetReplicaLayoutResp struct{}

// WireSize models the encoded response.
func (*SetReplicaLayoutResp) WireSize() int64 { return cells(0) }

// ---- Client↔OST messages ----

// ObjCreateReq creates an object on an IO server. The placement policy is
// server-side configuration (the endpoint owns the factory), so the
// request carries only identity and the size hint.
type ObjCreateReq struct {
	ID       ost.ObjectID
	SizeHint int64
}

// RPCOp names the op.
func (*ObjCreateReq) RPCOp() Op { return OpObjCreate }

// WireSize models the piggybacked control message.
func (*ObjCreateReq) WireSize() int64 { return 0 }

// ObjCreateResp acknowledges the creation.
type ObjCreateResp struct{}

// WireSize models the piggybacked control message.
func (*ObjCreateResp) WireSize() int64 { return 0 }

// ObjFallocateReq preallocates an object's blocks (static layout).
type ObjFallocateReq struct {
	ID         ost.ObjectID
	Stream     core.StreamID
	SizeBlocks int64
}

// RPCOp names the op.
func (*ObjFallocateReq) RPCOp() Op { return OpObjFallocate }

// WireSize models the piggybacked control message.
func (*ObjFallocateReq) WireSize() int64 { return 0 }

// ObjFallocateResp acknowledges the preallocation.
type ObjFallocateResp struct{}

// WireSize models the piggybacked control message.
func (*ObjFallocateResp) WireSize() int64 { return 0 }

// ObjWriteReq stores Count component-logical blocks. Payload is the DMA
// burst size in bytes; it is the request's wire size — the ack direction
// is free.
type ObjWriteReq struct {
	ID      ost.ObjectID
	Stream  core.StreamID
	Logical int64
	Count   int64
	Payload int64
}

// RPCOp names the op.
func (*ObjWriteReq) RPCOp() Op { return OpObjWrite }

// WireSize is the data payload carried toward the server.
func (m *ObjWriteReq) WireSize() int64 { return m.Payload }

// ObjWriteResp acknowledges the write (piggybacked completion).
type ObjWriteResp struct{}

// WireSize models the piggybacked completion.
func (*ObjWriteResp) WireSize() int64 { return 0 }

// ObjReadReq fetches Count component-logical blocks. Payload sizes the
// response DMA burst; the descriptor direction is free.
type ObjReadReq struct {
	ID      ost.ObjectID
	Logical int64
	Count   int64
	Payload int64
}

// RPCOp names the op.
func (*ObjReadReq) RPCOp() Op { return OpObjRead }

// WireSize is zero: the read descriptor rides the control plane.
func (*ObjReadReq) WireSize() int64 { return 0 }

// ObjReadResp carries the data back to the client.
type ObjReadResp struct {
	Payload int64
}

// WireSize is the data payload carried toward the client.
func (m *ObjReadResp) WireSize() int64 { return m.Payload }

// ObjTruncateReq cuts an object to NewSize blocks.
type ObjTruncateReq struct {
	ID      ost.ObjectID
	NewSize int64
}

// RPCOp names the op.
func (*ObjTruncateReq) RPCOp() Op { return OpObjTruncate }

// WireSize models the piggybacked control message.
func (*ObjTruncateReq) WireSize() int64 { return 0 }

// ObjTruncateResp acknowledges the truncation.
type ObjTruncateResp struct{}

// WireSize models the piggybacked control message.
func (*ObjTruncateResp) WireSize() int64 { return 0 }

// ObjFsyncReq forces an object's buffered writes and queued device I/O to
// storage.
type ObjFsyncReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjFsyncReq) RPCOp() Op { return OpObjFsync }

// WireSize models the piggybacked control message.
func (*ObjFsyncReq) WireSize() int64 { return 0 }

// ObjFsyncResp acknowledges the sync.
type ObjFsyncResp struct{}

// WireSize models the piggybacked control message.
func (*ObjFsyncResp) WireSize() int64 { return 0 }

// ObjFlushReq forces all queued device requests on the server.
type ObjFlushReq struct{}

// RPCOp names the op.
func (*ObjFlushReq) RPCOp() Op { return OpObjFlush }

// WireSize models the piggybacked control message.
func (*ObjFlushReq) WireSize() int64 { return 0 }

// ObjFlushResp reports the flush's simulated device time.
type ObjFlushResp struct {
	Dur sim.Ns
}

// WireSize models the piggybacked control message.
func (*ObjFlushResp) WireSize() int64 { return 0 }

// ObjDeleteReq removes an object and frees its blocks.
type ObjDeleteReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjDeleteReq) RPCOp() Op { return OpObjDelete }

// WireSize models the piggybacked control message.
func (*ObjDeleteReq) WireSize() int64 { return 0 }

// ObjDeleteResp acknowledges the removal.
type ObjDeleteResp struct{}

// WireSize models the piggybacked control message.
func (*ObjDeleteResp) WireSize() int64 { return 0 }

// ObjCloseReq releases an object's temporary reservations.
type ObjCloseReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjCloseReq) RPCOp() Op { return OpObjClose }

// WireSize models the piggybacked control message.
func (*ObjCloseReq) WireSize() int64 { return 0 }

// ObjCloseResp acknowledges the close.
type ObjCloseResp struct{}

// WireSize models the piggybacked control message.
func (*ObjCloseResp) WireSize() int64 { return 0 }

// ObjExtCountReq asks for an object's extent count.
type ObjExtCountReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjExtCountReq) RPCOp() Op { return OpObjExtCount }

// WireSize models the piggybacked control message.
func (*ObjExtCountReq) WireSize() int64 { return 0 }

// ObjExtCountResp carries the extent count.
type ObjExtCountResp struct {
	Count int
}

// WireSize models the piggybacked control message.
func (*ObjExtCountResp) WireSize() int64 { return 0 }

// ObjExtentsReq asks for an object's extent list.
type ObjExtentsReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjExtentsReq) RPCOp() Op { return OpObjExtents }

// WireSize models the piggybacked control message.
func (*ObjExtentsReq) WireSize() int64 { return 0 }

// ObjExtentsResp carries the extent list.
type ObjExtentsResp struct {
	Extents []extent.Extent
}

// WireSize models the piggybacked control message.
func (*ObjExtentsResp) WireSize() int64 { return 0 }

// ObjWrittenRunsReq asks for the maximal runs of written logical blocks —
// the manifest a repair copies (holes and preallocated-but-unwritten
// space are skipped; they carry no data).
type ObjWrittenRunsReq struct {
	ID ost.ObjectID
}

// RPCOp names the op.
func (*ObjWrittenRunsReq) RPCOp() Op { return OpObjWrittenRuns }

// WireSize models the piggybacked control message.
func (*ObjWrittenRunsReq) WireSize() int64 { return 0 }

// ObjWrittenRunsResp carries the written runs.
type ObjWrittenRunsResp struct {
	Runs []alloc.Range
}

// WireSize models the piggybacked control message.
func (*ObjWrittenRunsResp) WireSize() int64 { return 0 }
