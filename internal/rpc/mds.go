package rpc

import (
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mds"
	"redbud/internal/netsim"
	"redbud/internal/replica"
)

// MDSClient is the client of one metadata server; its methods mirror the
// mds.Server surface the mount consumes. Each method is one Conn.Call:
// the request and response legs ride the GbE control network in whole
// 512-byte cells, and the server call runs inside the closure.
type MDSClient struct {
	conn *Conn
	rt   *route
	srv  *mds.Server
}

// NewMDSClient routes addr to the metadata server over link on the
// connection and binds a client to it.
func NewMDSClient(conn *Conn, addr string, srv *mds.Server, link *netsim.Link) *MDSClient {
	return &MDSClient{conn: conn, rt: conn.register(addr, srv, link), srv: srv}
}

// nameCells sizes a request naming an entry: the parent inode and the name.
func nameCells(name string) int64 { return cells(inoBytes + int64(len(name))) }

// layoutCells sizes a message carrying an inode and its layout.
func layoutCells(layout []extent.Extent) int64 {
	return cells(inoBytes + int64(len(layout))*extentBytes)
}

// setsCells sizes a message carrying a file's replica sets.
func setsCells(sets [][]int) int64 {
	var n int64
	for _, s := range sets {
		n += int64(len(s))
	}
	return cells(n * replicaIdxBytes)
}

// Mkdir creates a directory.
func (c *MDSClient) Mkdir(parent inode.Ino, name string) (inode.Ino, error) {
	var ino inode.Ino
	err := c.conn.Call(c.rt, OpMkdir, nameCells(name), func() (n int64, err error) {
		ino, err = c.srv.Mkdir(parent, name)
		return cells(inoBytes), err
	})
	return ino, err
}

// Create creates a file.
func (c *MDSClient) Create(parent inode.Ino, name string) (inode.Ino, error) {
	var ino inode.Ino
	err := c.conn.Call(c.rt, OpCreate, nameCells(name), func() (n int64, err error) {
		ino, err = c.srv.Create(parent, name)
		return cells(inoBytes), err
	})
	return ino, err
}

// LookupResolved resolves a name and follows MDS-internal relocations
// (embedded-directory migrations) to the inode's current identity — the
// server resolves it so clients never chase relocations with extra round
// trips.
func (c *MDSClient) LookupResolved(parent inode.Ino, name string) (inode.Ino, error) {
	var ino inode.Ino
	err := c.conn.Call(c.rt, OpLookup, nameCells(name), func() (n int64, err error) {
		ino, err = c.srv.Lookup(parent, name)
		if err == nil {
			ino = c.srv.FS().Resolve(ino)
		}
		return cells(inoBytes), err
	})
	return ino, err
}

// Unlink removes a file.
func (c *MDSClient) Unlink(parent inode.Ino, name string) error {
	return c.conn.Call(c.rt, OpUnlink, nameCells(name), func() (int64, error) {
		return cells(0), c.srv.Unlink(parent, name)
	})
}

// OpenGetLayout opens a file and acquires its layout summary in one
// request.
func (c *MDSClient) OpenGetLayout(parent inode.Ino, name string) (inode.Ino, []extent.Extent, error) {
	var ino inode.Ino
	var layout []extent.Extent
	err := c.conn.Call(c.rt, OpOpenGetLayout, nameCells(name), func() (n int64, err error) {
		ino, layout, err = c.srv.OpenGetLayout(parent, name)
		return layoutCells(layout), err
	})
	return ino, layout, err
}

// SetLayout records a file's data placement as reported by the IO servers.
func (c *MDSClient) SetLayout(ino inode.Ino, layout []extent.Extent) error {
	return c.conn.Call(c.rt, OpSetLayout, layoutCells(layout), func() (int64, error) {
		return cells(0), c.srv.SetLayout(ino, layout)
	})
}

// NoteExtentChurn reports mapping churn from a data phase; it piggybacks
// on data-plane completions.
func (c *MDSClient) NoteExtentChurn(units int) error {
	return c.conn.Call(c.rt, OpExtentChurn, 0, func() (int64, error) {
		c.srv.NoteExtentChurn(units)
		return 0, nil
	})
}

// Sync flushes the metadata file system (control plane).
func (c *MDSClient) Sync() error {
	return c.conn.Call(c.rt, OpMDSSync, 0, func() (int64, error) {
		return 0, c.srv.Sync()
	})
}

// PlaceReplicas asks the MDS to place RF replicas for each of a file's
// comps stripe components. The client ships its per-OST capacity/load
// observations (and which servers it currently suspects dead) so the MDS
// scores targets without a server-to-server gossip plane.
func (c *MDSClient) PlaceReplicas(ino inode.Ino, comps, rf int, in []replica.PlaceInput) ([][]int, error) {
	var sets [][]int
	reqSize := cells(inoBytes + 2*i64Bytes + int64(len(in))*placeInputBytes)
	err := c.conn.Call(c.rt, OpPlaceReplicas, reqSize, func() (n int64, err error) {
		sets, err = c.srv.PlaceReplicas(ino, comps, rf, in)
		return setsCells(sets), err
	})
	return sets, err
}

// GetReplicaLayout fetches a file's replica sets at open.
func (c *MDSClient) GetReplicaLayout(ino inode.Ino) ([][]int, error) {
	var sets [][]int
	err := c.conn.Call(c.rt, OpGetReplicaLayout, cells(inoBytes), func() (n int64, err error) {
		sets, err = c.srv.GetReplicaLayout(ino)
		return setsCells(sets), err
	})
	return sets, err
}

// SetReplicaLayout updates one component's replica set after a
// re-replication completes.
func (c *MDSClient) SetReplicaLayout(ino inode.Ino, comp int, replicas []int) error {
	reqSize := cells(inoBytes + i64Bytes + int64(len(replicas))*replicaIdxBytes)
	return c.conn.Call(c.rt, OpSetReplicaLayout, reqSize, func() (int64, error) {
		return cells(0), c.srv.SetReplicaLayout(ino, comp, replicas)
	})
}
