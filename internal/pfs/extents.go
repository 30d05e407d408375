package pfs

// The extent-count cache. A file's segment count — Table I's currency —
// is summed over one clean replica per stripe component, the one
// bookReplica picks, and every write-back charges the MDS for the change
// (NoteExtentChurn). Every write reply carries its object's count, so the
// mount keeps, per component, the count the booked replica last reported
// and sends obj-extent-count only for an entry it cannot trust:
//
//   - the booked pick moved: a server was marked down, a copy went stale,
//     or a repair finished;
//   - the entry was dropped: the booked write failed, the file was
//     truncated or fallocated, or the repair engine reset the copy;
//   - the server's generation moved (distrust), because it may have
//     remapped objects behind the mount's back — a defrag migration, or on
//     a DelayedAllocation mount a buffer flush, which a write or flush to
//     the server may set off for every object it buffers (a read, fsync or
//     truncate sets one off for its own object only: objectFlushed) — or
//     because a crash recovery ran, and the op the crash cut short may have
//     changed a map without its reply ever arriving;
//   - the server crashed (CrashOST). Its map survives — so does a revived
//     server's: Restart drops only volatile buffers and reservations, and
//     ReviveOST leaves the cache alone — but the counts it reported lapse
//     with it, like leases: the next write-back asks again and, as before
//     the cache, finds the server dead through its own timeout rather than
//     through whichever write next lands there.
//
// TestExtentCacheMatchesServers checks every usable entry against the
// servers after every op of a script over these paths.

import "fmt"

// extentCount is one component's cached segment count.
type extentCount struct {
	ost   int    // the booked replica the count came from
	gen   uint64 // that server's countGen when it reported
	n     int
	valid bool
}

// cachedCount returns component c's count if its entry still holds for
// booked replica r.
func (fs *FS) cachedCount(f *file, c, r int) (int, bool) {
	e := f.counts[c]
	return e.n, e.valid && e.ost == r && e.gen == fs.countGen[r]
}

// noteCount records n as component c's count, reported by replica r.
func (fs *FS) noteCount(f *file, c, r, n int) {
	f.counts[c] = extentCount{ost: r, gen: fs.countGen[r], n: n, valid: true}
}

// dropCount forgets component c's count.
func (f *file) dropCount(c int) { f.counts[c].valid = false }

// distrust stops trusting every count server r has reported.
func (fs *FS) distrust(r int) { fs.countGen[r]++ }

// buffersFlushed notes a request to server r that may flush every
// object's delayed-allocation buffers.
func (fs *FS) buffersFlushed(r int) {
	if fs.cfg.OST.DelayedAllocation {
		fs.distrust(r)
	}
}

// objectFlushed notes a request to server r that flushes component c's
// delayed-allocation buffers there.
func (fs *FS) objectFlushed(f *file, c, r int) {
	if fs.cfg.OST.DelayedAllocation && f.counts[c].ost == r {
		f.dropCount(c)
	}
}

// totalExtents sums the segment counts over one clean replica per
// component, failing over like a read when a pick turns out to be
// unreachable. With cached set a component whose entry still holds costs
// no RPC; every count the servers report refreshes its entry.
func (fs *FS) totalExtents(f *file, cached bool) (int, error) {
	total := 0
	for c := range f.objects {
		for {
			r, obj, ok := fs.bookReplica(f, c)
			if !ok {
				return 0, fmt.Errorf("pfs: no readable replica for component %d", c)
			}
			if n, ok := fs.cachedCount(f, c, r); cached && ok {
				total += n
				break
			}
			n, err := fs.ostc[r].ExtentCount(obj)
			if err == nil {
				fs.noteCount(f, c, r, n)
				total += n
				break
			}
			if !fs.failover(err, f, c, r) {
				return 0, err
			}
		}
	}
	return total, nil
}
