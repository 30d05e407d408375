package rpc

import (
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mds"
	"redbud/internal/replica"
	"redbud/internal/telemetry"
)

// MDSEndpoint dispatches the metadata op catalog into one mds.Server.
type MDSEndpoint struct {
	addr  string
	srv   *mds.Server
	cache *replayCache
}

// NewMDSEndpoint wraps a metadata server.
func NewMDSEndpoint(addr string, srv *mds.Server) *MDSEndpoint {
	return &MDSEndpoint{addr: addr, srv: srv, cache: newReplayCache()}
}

// Addr is the endpoint's address on the connection.
func (e *MDSEndpoint) Addr() string { return e.addr }

// Server exposes the wrapped server for measurement.
func (e *MDSEndpoint) Server() *mds.Server { return e.srv }

// SetTraceParent declares the span the server's spans nest under.
func (e *MDSEndpoint) SetTraceParent(id telemetry.SpanID) { e.srv.SetTraceParent(id) }

// ReplayHits reports requests answered from the replay cache.
func (e *MDSEndpoint) ReplayHits() int64 { return e.cache.hits }

// Serve executes one request through the replay cache.
func (e *MDSEndpoint) Serve(xid uint64, req Request) (Msg, error) {
	return e.cache.serveCached(xid, func() (Msg, error) { return e.dispatch(req) })
}

// dispatch routes a request to the server method implementing its op.
func (e *MDSEndpoint) dispatch(req Request) (Msg, error) {
	switch m := req.(type) {
	case *MkdirReq:
		ino, err := e.srv.Mkdir(m.Parent, m.Name)
		if err != nil {
			return nil, err
		}
		return &MkdirResp{Ino: ino}, nil
	case *CreateReq:
		ino, err := e.srv.Create(m.Parent, m.Name)
		if err != nil {
			return nil, err
		}
		return &CreateResp{Ino: ino}, nil
	case *LookupReq:
		ino, err := e.srv.Lookup(m.Parent, m.Name)
		if err != nil {
			return nil, err
		}
		return &LookupResp{Ino: ino, Resolved: e.srv.FS().Resolve(ino)}, nil
	case *StatReq:
		rec, err := e.srv.Stat(m.Ino)
		if err != nil {
			return nil, err
		}
		return &StatResp{Inode: rec}, nil
	case *StatNameReq:
		rec, err := e.srv.StatName(m.Parent, m.Name)
		if err != nil {
			return nil, err
		}
		return &StatNameResp{Inode: rec}, nil
	case *UtimeReq:
		if err := e.srv.Utime(m.Ino); err != nil {
			return nil, err
		}
		return &UtimeResp{}, nil
	case *UnlinkReq:
		if err := e.srv.Unlink(m.Parent, m.Name); err != nil {
			return nil, err
		}
		return &UnlinkResp{}, nil
	case *RmdirReq:
		if err := e.srv.Rmdir(m.Parent, m.Name); err != nil {
			return nil, err
		}
		return &RmdirResp{}, nil
	case *RenameReq:
		ino, err := e.srv.Rename(m.SrcParent, m.Name, m.DstParent, m.NewName)
		if err != nil {
			return nil, err
		}
		return &RenameResp{Ino: ino}, nil
	case *ReaddirReq:
		names, err := e.srv.Readdir(m.Parent)
		if err != nil {
			return nil, err
		}
		return &ReaddirResp{Names: names}, nil
	case *ReaddirPlusReq:
		recs, err := e.srv.ReaddirPlus(m.Parent)
		if err != nil {
			return nil, err
		}
		return &ReaddirPlusResp{Entries: recs}, nil
	case *OpenGetLayoutReq:
		ino, layout, err := e.srv.OpenGetLayout(m.Parent, m.Name)
		if err != nil {
			return nil, err
		}
		return &OpenGetLayoutResp{Ino: ino, Layout: layout}, nil
	case *SetLayoutReq:
		if err := e.srv.SetLayout(m.Ino, m.Layout); err != nil {
			return nil, err
		}
		return &SetLayoutResp{}, nil
	case *MDSSyncReq:
		if err := e.srv.Sync(); err != nil {
			return nil, err
		}
		return &MDSSyncResp{}, nil
	case *ExtentChurnReq:
		e.srv.NoteExtentChurn(m.Units)
		return &ExtentChurnResp{}, nil
	case *PlaceReplicasReq:
		sets, err := e.srv.PlaceReplicas(m.Ino, m.Comps, m.RF, m.Inputs)
		if err != nil {
			return nil, err
		}
		return &PlaceReplicasResp{Sets: sets}, nil
	case *GetReplicaLayoutReq:
		sets, err := e.srv.GetReplicaLayout(m.Ino)
		if err != nil {
			return nil, err
		}
		return &GetReplicaLayoutResp{Sets: sets}, nil
	case *SetReplicaLayoutReq:
		if err := e.srv.SetReplicaLayout(m.Ino, m.Comp, m.Replicas); err != nil {
			return nil, err
		}
		return &SetReplicaLayoutResp{}, nil
	default:
		return nil, &Error{Op: req.RPCOp(), Addr: e.addr, Kind: KindBadRequest}
	}
}

// MDSClient is the typed client of one metadata endpoint; its methods
// mirror the mds.Server surface the mount consumes.
type MDSClient struct {
	conn *Conn
	addr string
}

// NewMDSClient binds a client to an address on the connection.
func NewMDSClient(conn *Conn, addr string) *MDSClient {
	return &MDSClient{conn: conn, addr: addr}
}

// Addr returns the endpoint address the client calls.
func (c *MDSClient) Addr() string { return c.addr }

// Mkdir creates a directory.
func (c *MDSClient) Mkdir(parent inode.Ino, name string) (inode.Ino, error) {
	resp, err := call[*MkdirResp](c.conn, c.addr, &MkdirReq{Parent: parent, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Ino, nil
}

// Create creates a file.
func (c *MDSClient) Create(parent inode.Ino, name string) (inode.Ino, error) {
	resp, err := call[*CreateResp](c.conn, c.addr, &CreateReq{Parent: parent, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Ino, nil
}

// Lookup resolves a name.
func (c *MDSClient) Lookup(parent inode.Ino, name string) (inode.Ino, error) {
	resp, err := call[*LookupResp](c.conn, c.addr, &LookupReq{Parent: parent, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Ino, nil
}

// LookupResolved resolves a name and follows MDS-internal relocations to
// the inode's current identity.
func (c *MDSClient) LookupResolved(parent inode.Ino, name string) (inode.Ino, error) {
	resp, err := call[*LookupResp](c.conn, c.addr, &LookupReq{Parent: parent, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Resolved, nil
}

// Stat reads an inode.
func (c *MDSClient) Stat(ino inode.Ino) (inode.Inode, error) {
	resp, err := call[*StatResp](c.conn, c.addr, &StatReq{Ino: ino})
	if err != nil {
		return inode.Inode{}, err
	}
	return resp.Inode, nil
}

// StatName resolves and reads an inode.
func (c *MDSClient) StatName(parent inode.Ino, name string) (inode.Inode, error) {
	resp, err := call[*StatNameResp](c.conn, c.addr, &StatNameReq{Parent: parent, Name: name})
	if err != nil {
		return inode.Inode{}, err
	}
	return resp.Inode, nil
}

// Utime updates an mtime.
func (c *MDSClient) Utime(ino inode.Ino) error {
	_, err := call[*UtimeResp](c.conn, c.addr, &UtimeReq{Ino: ino})
	return err
}

// Unlink removes a file.
func (c *MDSClient) Unlink(parent inode.Ino, name string) error {
	_, err := call[*UnlinkResp](c.conn, c.addr, &UnlinkReq{Parent: parent, Name: name})
	return err
}

// Rmdir removes an empty directory.
func (c *MDSClient) Rmdir(parent inode.Ino, name string) error {
	_, err := call[*RmdirResp](c.conn, c.addr, &RmdirReq{Parent: parent, Name: name})
	return err
}

// Rename moves an entry.
func (c *MDSClient) Rename(srcParent inode.Ino, name string, dstParent inode.Ino, newName string) (inode.Ino, error) {
	resp, err := call[*RenameResp](c.conn, c.addr, &RenameReq{
		SrcParent: srcParent, Name: name, DstParent: dstParent, NewName: newName,
	})
	if err != nil {
		return 0, err
	}
	return resp.Ino, nil
}

// Readdir lists a directory.
func (c *MDSClient) Readdir(parent inode.Ino) ([]string, error) {
	resp, err := call[*ReaddirResp](c.conn, c.addr, &ReaddirReq{Parent: parent})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// ReaddirPlus fetches a whole directory with inode contents.
func (c *MDSClient) ReaddirPlus(parent inode.Ino) ([]inode.Inode, error) {
	resp, err := call[*ReaddirPlusResp](c.conn, c.addr, &ReaddirPlusReq{Parent: parent})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// OpenGetLayout opens a file and acquires its layout summary.
func (c *MDSClient) OpenGetLayout(parent inode.Ino, name string) (inode.Ino, []extent.Extent, error) {
	resp, err := call[*OpenGetLayoutResp](c.conn, c.addr, &OpenGetLayoutReq{Parent: parent, Name: name})
	if err != nil {
		return 0, nil, err
	}
	return resp.Ino, resp.Layout, nil
}

// SetLayout records a file's data placement.
func (c *MDSClient) SetLayout(ino inode.Ino, layout []extent.Extent) error {
	_, err := call[*SetLayoutResp](c.conn, c.addr, &SetLayoutReq{Ino: ino, Layout: layout})
	return err
}

// NoteExtentChurn reports mapping churn from a data phase.
func (c *MDSClient) NoteExtentChurn(units int) error {
	req := extentChurnReqPool.get()
	req.Units = units
	_, err := call[*ExtentChurnResp](c.conn, c.addr, req)
	extentChurnReqPool.put(req)
	return err
}

// Sync flushes the metadata file system.
func (c *MDSClient) Sync() error {
	_, err := call[*MDSSyncResp](c.conn, c.addr, &MDSSyncReq{})
	return err
}

// PlaceReplicas asks the MDS to place a file's replica sets from the
// client's capacity/load observations.
func (c *MDSClient) PlaceReplicas(ino inode.Ino, comps, rf int, in []replica.PlaceInput) ([][]int, error) {
	resp, err := call[*PlaceReplicasResp](c.conn, c.addr, &PlaceReplicasReq{
		Ino: ino, Comps: comps, RF: rf, Inputs: in,
	})
	if err != nil {
		return nil, err
	}
	return resp.Sets, nil
}

// GetReplicaLayout fetches a file's replica sets.
func (c *MDSClient) GetReplicaLayout(ino inode.Ino) ([][]int, error) {
	resp, err := call[*GetReplicaLayoutResp](c.conn, c.addr, &GetReplicaLayoutReq{Ino: ino})
	if err != nil {
		return nil, err
	}
	return resp.Sets, nil
}

// SetReplicaLayout updates one component's replica set after a repair.
func (c *MDSClient) SetReplicaLayout(ino inode.Ino, comp int, replicas []int) error {
	_, err := call[*SetReplicaLayoutResp](c.conn, c.addr, &SetReplicaLayoutReq{
		Ino: ino, Comp: comp, Replicas: replicas,
	})
	return err
}
