package rpc

import (
	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/extent"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// OSTEndpoint dispatches the object op catalog into one ost.Server. The
// placement policy applied to newly created objects is endpoint
// configuration (one factory per mount), mirroring how a real IO server
// runs the allocator its volume was formatted with.
type OSTEndpoint struct {
	addr    string
	srv     *ost.Server
	factory ost.PolicyFactory
	cache   *replayCache
}

// NewOSTEndpoint wraps an IO server with the placement policy new objects
// use.
func NewOSTEndpoint(addr string, srv *ost.Server, factory ost.PolicyFactory) *OSTEndpoint {
	return &OSTEndpoint{addr: addr, srv: srv, factory: factory, cache: newReplayCache()}
}

// Addr is the endpoint's address on the connection.
func (e *OSTEndpoint) Addr() string { return e.addr }

// Server exposes the wrapped server for measurement.
func (e *OSTEndpoint) Server() *ost.Server { return e.srv }

// SetTraceParent declares the span the server's spans nest under.
func (e *OSTEndpoint) SetTraceParent(id telemetry.SpanID) { e.srv.SetTraceParent(id) }

// ReplayHits reports requests answered from the replay cache.
func (e *OSTEndpoint) ReplayHits() int64 { return e.cache.hits }

// Serve executes one request through the replay cache.
func (e *OSTEndpoint) Serve(xid uint64, req Request) (Msg, error) {
	return e.cache.serveCached(xid, func() (Msg, error) { return e.dispatch(req) })
}

// dispatch routes a request to the server method implementing its op.
func (e *OSTEndpoint) dispatch(req Request) (Msg, error) {
	switch m := req.(type) {
	case *ObjCreateReq:
		if err := e.srv.CreateObject(m.ID, e.factory, m.SizeHint); err != nil {
			return nil, err
		}
		return &ObjCreateResp{}, nil
	case *ObjFallocateReq:
		if err := e.srv.Fallocate(m.ID, m.Stream, m.SizeBlocks); err != nil {
			return nil, err
		}
		return &ObjFallocateResp{}, nil
	case *ObjWriteReq:
		if err := e.srv.Write(m.ID, m.Stream, m.Logical, m.Count); err != nil {
			return nil, err
		}
		return &ObjWriteResp{}, nil
	case *ObjReadReq:
		if err := e.srv.Read(m.ID, m.Logical, m.Count); err != nil {
			return nil, err
		}
		return &ObjReadResp{Payload: m.Payload}, nil
	case *ObjTruncateReq:
		if err := e.srv.Truncate(m.ID, m.NewSize); err != nil {
			return nil, err
		}
		return &ObjTruncateResp{}, nil
	case *ObjFsyncReq:
		if err := e.srv.Fsync(m.ID); err != nil {
			return nil, err
		}
		return &ObjFsyncResp{}, nil
	case *ObjFlushReq:
		return &ObjFlushResp{Dur: e.srv.Flush()}, nil
	case *ObjDeleteReq:
		if err := e.srv.Delete(m.ID); err != nil {
			return nil, err
		}
		return &ObjDeleteResp{}, nil
	case *ObjCloseReq:
		if err := e.srv.CloseObject(m.ID); err != nil {
			return nil, err
		}
		return &ObjCloseResp{}, nil
	case *ObjExtCountReq:
		n, err := e.srv.ExtentCount(m.ID)
		if err != nil {
			return nil, err
		}
		return extCountResp(n), nil
	case *ObjExtentsReq:
		exts, err := e.srv.Extents(m.ID)
		if err != nil {
			return nil, err
		}
		return &ObjExtentsResp{Extents: exts}, nil
	case *ObjWrittenRunsReq:
		runs, err := e.srv.WrittenRuns(m.ID)
		if err != nil {
			return nil, err
		}
		return &ObjWrittenRunsResp{Runs: runs}, nil
	default:
		return nil, &Error{Op: req.RPCOp(), Addr: e.addr, Kind: KindBadRequest}
	}
}

// OSTClient is the typed client of one IO-server endpoint. It knows the
// volume's block size so data ops can size their DMA payloads.
type OSTClient struct {
	conn       *Conn
	addr       string
	blockBytes int64
}

// NewOSTClient binds a client to an address on the connection.
func NewOSTClient(conn *Conn, addr string, blockBytes int64) *OSTClient {
	return &OSTClient{conn: conn, addr: addr, blockBytes: blockBytes}
}

// Addr returns the endpoint address the client calls.
func (c *OSTClient) Addr() string { return c.addr }

// CreateObject creates an object under the endpoint's placement policy.
func (c *OSTClient) CreateObject(id ost.ObjectID, sizeHint int64) error {
	req := objCreateReqPool.get()
	*req = ObjCreateReq{ID: id, SizeHint: sizeHint}
	_, err := call[*ObjCreateResp](c.conn, c.addr, req)
	objCreateReqPool.put(req)
	return err
}

// Fallocate preallocates an object's blocks.
func (c *OSTClient) Fallocate(id ost.ObjectID, stream core.StreamID, sizeBlocks int64) error {
	_, err := call[*ObjFallocateResp](c.conn, c.addr, &ObjFallocateReq{
		ID: id, Stream: stream, SizeBlocks: sizeBlocks,
	})
	return err
}

// Write stores count component-logical blocks, paying the payload's data
// transfer.
func (c *OSTClient) Write(id ost.ObjectID, stream core.StreamID, logical, count int64) error {
	req := objWriteReqPool.get()
	*req = ObjWriteReq{
		ID: id, Stream: stream, Logical: logical, Count: count,
		Payload: count * c.blockBytes,
	}
	_, err := call[*ObjWriteResp](c.conn, c.addr, req)
	objWriteReqPool.put(req)
	return err
}

// Read fetches count component-logical blocks, paying the payload's data
// transfer on the response.
func (c *OSTClient) Read(id ost.ObjectID, logical, count int64) error {
	req := objReadReqPool.get()
	*req = ObjReadReq{
		ID: id, Logical: logical, Count: count, Payload: count * c.blockBytes,
	}
	_, err := call[*ObjReadResp](c.conn, c.addr, req)
	objReadReqPool.put(req)
	return err
}

// Truncate cuts an object to newSize blocks.
func (c *OSTClient) Truncate(id ost.ObjectID, newSize int64) error {
	_, err := call[*ObjTruncateResp](c.conn, c.addr, &ObjTruncateReq{ID: id, NewSize: newSize})
	return err
}

// Fsync forces an object's buffered writes and queued device I/O.
func (c *OSTClient) Fsync(id ost.ObjectID) error {
	req := objFsyncReqPool.get()
	*req = ObjFsyncReq{ID: id}
	_, err := call[*ObjFsyncResp](c.conn, c.addr, req)
	objFsyncReqPool.put(req)
	return err
}

// Flush forces all queued device requests, returning the simulated device
// time.
func (c *OSTClient) Flush() (sim.Ns, error) {
	resp, err := call[*ObjFlushResp](c.conn, c.addr, &ObjFlushReq{})
	if err != nil {
		return 0, err
	}
	return resp.Dur, nil
}

// Delete removes an object and frees its blocks.
func (c *OSTClient) Delete(id ost.ObjectID) error {
	_, err := call[*ObjDeleteResp](c.conn, c.addr, &ObjDeleteReq{ID: id})
	return err
}

// CloseObject releases an object's temporary reservations.
func (c *OSTClient) CloseObject(id ost.ObjectID) error {
	req := objCloseReqPool.get()
	*req = ObjCloseReq{ID: id}
	_, err := call[*ObjCloseResp](c.conn, c.addr, req)
	objCloseReqPool.put(req)
	return err
}

// ExtentCount returns an object's extent count.
func (c *OSTClient) ExtentCount(id ost.ObjectID) (int, error) {
	req := objExtCountReqPool.get()
	*req = ObjExtCountReq{ID: id}
	resp, err := call[*ObjExtCountResp](c.conn, c.addr, req)
	objExtCountReqPool.put(req)
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Extents returns an object's extent list.
func (c *OSTClient) Extents(id ost.ObjectID) ([]extent.Extent, error) {
	resp, err := call[*ObjExtentsResp](c.conn, c.addr, &ObjExtentsReq{ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Extents, nil
}

// WrittenRuns returns the maximal runs of written logical blocks — the
// repair engine's copy manifest.
func (c *OSTClient) WrittenRuns(id ost.ObjectID) ([]alloc.Range, error) {
	resp, err := call[*ObjWrittenRunsResp](c.conn, c.addr, &ObjWrittenRunsReq{ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Runs, nil
}
