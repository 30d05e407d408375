package rpc

// replayCacheSize bounds the duplicate-request cache. Retries arrive
// within a handful of calls of the original, so a small FIFO window is
// plenty; production DRCs are similarly bounded.
const replayCacheSize = 1024

// replayEntry is one executed request's recorded outcome.
type replayEntry struct {
	xid      uint64
	respSize int64
	err      error
}

// replayCache is the NFS-style duplicate request cache: it records every
// executed (xid → outcome) pair so a retry of a request whose response was
// lost returns the original outcome instead of re-executing a
// non-idempotent operation.
//
// The connection assigns xids from one monotone counter, so the xids a
// route records are strictly increasing: a never-seen request always
// carries xid > lastXid, and the hot path is a single compare plus a ring
// write — no map. Only a retransmission (xid ≤ lastXid, rare by
// construction) scans the ring, newest entry first; retries reuse a
// just-recorded xid, so the scan terminates within a few probes. Scanning
// the whole ring on a miss keeps the retention semantics exactly those of
// the map-backed FIFO this replaces.
type replayCache struct {
	ring    []replayEntry // FIFO; oldest entry at head
	head    int
	n       int
	lastXid uint64 // newest xid recorded; 0 = none (xids start at 1)
	hits    int64
}

// newReplayCache builds an empty cache.
func newReplayCache() *replayCache {
	return &replayCache{ring: make([]replayEntry, replayCacheSize)}
}

// lookup returns the recorded outcome of xid, if any.
func (c *replayCache) lookup(xid uint64) (replayEntry, bool) {
	if xid > c.lastXid {
		return replayEntry{}, false
	}
	for i := 1; i <= c.n; i++ {
		e := &c.ring[(c.head+c.n-i)%replayCacheSize]
		if e.xid == xid {
			c.hits++
			return *e, true
		}
	}
	return replayEntry{}, false
}

// record stores an executed request's outcome, evicting the oldest entry
// at capacity.
func (c *replayCache) record(xid uint64, respSize int64, err error) {
	e := replayEntry{xid: xid, respSize: respSize, err: err}
	if c.n == replayCacheSize {
		// Full: the tail slot coincides with the head slot, so evicting the
		// oldest and enqueuing the newest is one overwrite plus a rotate.
		c.ring[c.head] = e
		c.head = (c.head + 1) % replayCacheSize
	} else {
		c.ring[(c.head+c.n)%replayCacheSize] = e
		c.n++
	}
	// Monotone: a retried request whose original send was dropped records
	// an xid older than entries already here; the fast-path guard in lookup
	// must keep covering those newer entries.
	if xid > c.lastXid {
		c.lastXid = xid
	}
}

// serve runs exec once per xid: a recorded xid is answered from its
// record, anything else executes and is recorded. exec is only called,
// never kept, so the caller's closure does not escape.
func (c *replayCache) serve(xid uint64, exec func() (int64, error)) (int64, error) {
	if e, ok := c.lookup(xid); ok {
		return e.respSize, e.err
	}
	respSize, err := exec()
	c.record(xid, respSize, err)
	return respSize, err
}
