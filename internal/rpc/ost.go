package rpc

import (
	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/extent"
	"redbud/internal/netsim"
	"redbud/internal/ost"
	"redbud/internal/sim"
)

// OSTClient is the client of one IO server. Each method is one Conn.Call:
// data ops model DMA bursts on the FibreChannel link — a write's request
// and a read's response carry exactly the payload, the volume's block size
// times the block count — and everything else is piggybacked control
// traffic at zero wire cost. The placement policy applied to newly created
// objects is server-side configuration (one factory per mount), mirroring
// how a real IO server runs the allocator its volume was formatted with.
type OSTClient struct {
	conn       *Conn
	rt         *route
	srv        *ost.Server
	factory    ost.PolicyFactory
	blockBytes int64
}

// NewOSTClient routes addr to the IO server over link on the connection
// and binds a client to it; factory is the placement policy new objects
// use, blockBytes sizes the data payloads.
func NewOSTClient(conn *Conn, addr string, srv *ost.Server, factory ost.PolicyFactory, link *netsim.Link, blockBytes int64) *OSTClient {
	return &OSTClient{conn: conn, rt: conn.register(addr, srv, link), srv: srv, factory: factory, blockBytes: blockBytes}
}

// CreateObject creates an object under the server's placement policy.
func (c *OSTClient) CreateObject(id ost.ObjectID, sizeHint int64) error {
	return c.conn.Call(c.rt, OpObjCreate, 0, func() (int64, error) {
		return 0, c.srv.CreateObject(id, c.factory, sizeHint)
	})
}

// Fallocate preallocates an object's blocks (static layout).
func (c *OSTClient) Fallocate(id ost.ObjectID, stream core.StreamID, sizeBlocks int64) error {
	return c.conn.Call(c.rt, OpObjFallocate, 0, func() (int64, error) {
		return 0, c.srv.Fallocate(id, stream, sizeBlocks)
	})
}

// Write stores count component-logical blocks and returns the object's
// extent count after the write; the request carries the payload, the ack
// (count included) is free. The count is read in the one execution, so a
// retry the replay cache answers returns it too.
func (c *OSTClient) Write(id ost.ObjectID, stream core.StreamID, logical, count int64) (int, error) {
	var extents int
	err := c.conn.Call(c.rt, OpObjWrite, count*c.blockBytes, func() (n int64, err error) {
		if err = c.srv.Write(id, stream, logical, count); err == nil {
			extents, err = c.srv.ExtentCount(id)
		}
		return 0, err
	})
	return extents, err
}

// Read fetches count component-logical blocks; the descriptor is free, the
// response carries the payload.
func (c *OSTClient) Read(id ost.ObjectID, logical, count int64) error {
	return c.conn.Call(c.rt, OpObjRead, 0, func() (int64, error) {
		return count * c.blockBytes, c.srv.Read(id, logical, count)
	})
}

// Truncate cuts an object to newSize blocks.
func (c *OSTClient) Truncate(id ost.ObjectID, newSize int64) error {
	return c.conn.Call(c.rt, OpObjTruncate, 0, func() (int64, error) {
		return 0, c.srv.Truncate(id, newSize)
	})
}

// Fsync forces an object's buffered writes and queued device I/O to
// storage.
func (c *OSTClient) Fsync(id ost.ObjectID) error {
	return c.conn.Call(c.rt, OpObjFsync, 0, func() (int64, error) {
		return 0, c.srv.Fsync(id)
	})
}

// Flush forces all queued device requests, returning the simulated device
// time.
func (c *OSTClient) Flush() (sim.Ns, error) {
	var dur sim.Ns
	err := c.conn.Call(c.rt, OpObjFlush, 0, func() (int64, error) {
		dur = c.srv.Flush()
		return 0, nil
	})
	return dur, err
}

// Delete removes an object and frees its blocks.
func (c *OSTClient) Delete(id ost.ObjectID) error {
	return c.conn.Call(c.rt, OpObjDelete, 0, func() (int64, error) {
		return 0, c.srv.Delete(id)
	})
}

// CloseObject releases an object's temporary reservations.
func (c *OSTClient) CloseObject(id ost.ObjectID) error {
	return c.conn.Call(c.rt, OpObjClose, 0, func() (int64, error) {
		return 0, c.srv.CloseObject(id)
	})
}

// ExtentCount returns an object's extent count.
func (c *OSTClient) ExtentCount(id ost.ObjectID) (int, error) {
	var count int
	err := c.conn.Call(c.rt, OpObjExtCount, 0, func() (n int64, err error) {
		count, err = c.srv.ExtentCount(id)
		return 0, err
	})
	return count, err
}

// Extents returns an object's extent list.
func (c *OSTClient) Extents(id ost.ObjectID) ([]extent.Extent, error) {
	var exts []extent.Extent
	err := c.conn.Call(c.rt, OpObjExtents, 0, func() (n int64, err error) {
		exts, err = c.srv.Extents(id)
		return 0, err
	})
	return exts, err
}

// WrittenRuns returns the maximal runs of written logical blocks — the
// repair engine's copy manifest (holes and preallocated-but-unwritten
// space are skipped; they carry no data).
func (c *OSTClient) WrittenRuns(id ost.ObjectID) ([]alloc.Range, error) {
	var runs []alloc.Range
	err := c.conn.Call(c.rt, OpObjWrittenRuns, 0, func() (n int64, err error) {
		runs, err = c.srv.WrittenRuns(id)
		return 0, err
	})
	return runs, err
}
