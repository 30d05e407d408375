package pfs

// Whole-cluster power-fail recovery: the mount-side sequence a crash sweep
// (internal/crashsim) drives after an armed crash point killed the cluster.
// The order mirrors a real parallel file system coming back:
//
//  1. abandon client-side repair state (the coordinator died with it);
//  2. the MDS loses its page cache and open transaction, replays the
//     journal, remounts the namespace from disk, and fscks it;
//  3. every IO server rolls its volatile write queue back to what the
//     media held (ost.PowerFail) and scrubs — demoting torn blocks,
//     reclaiming leaked and orphaned space;
//  4. blackholes and client suspicion are reset (all servers reboot);
//  5. the client cache reboots empty;
//  6. on replicated mounts, staleness is re-derived from durable state —
//     the manager's stale bits died with the client, but each member's
//     written coverage survives on its server — and the repair engine is
//     drained until redundancy is restored.

import (
	"fmt"
	"sort"

	"redbud/internal/alloc"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/ost"
)

// RecoveryReport summarizes one CrashRecover.
type RecoveryReport struct {
	// Mdfs is the post-replay metadata fsck.
	Mdfs *mdfs.FsckReport
	// MdsReclaimed counts metadata blocks the allocator rebuild returned
	// to free space: blocks whose linking operations the lost journal
	// records never made durable (the mdfs analogue of the OST scrub's
	// leak reclamation).
	MdsReclaimed int64
	// Scrubs are the per-OST scrub results, ordered by server index.
	Scrubs []ost.ScrubReport
	// StaleMarked counts replica members re-marked stale from durable
	// written coverage (replicated mounts only).
	StaleMarked int
	// RepairedOK reports whether the post-recovery repair drain restored
	// full redundancy (true on unreplicated mounts).
	RepairedOK bool
}

// Clean reports whether recovery found a consistent cluster: the metadata
// fsck passed and redundancy came back.
func (r *RecoveryReport) Clean() bool {
	return r.Mdfs != nil && r.Mdfs.Clean() && r.RepairedOK
}

// CrashRecover brings the mount back after an injector kill (or any other
// point where the caller wants to model a whole-cluster power failure).
// It must only be called between operations — never with an FS call on the
// stack — and leaves the mount serving requests again.
func (fs *FS) CrashRecover() (*RecoveryReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rep := &RecoveryReport{}

	// 1. The repair coordinator's in-flight job died with the client.
	if fs.rep != nil && fs.rep.JobActive() {
		fs.rep.AbortJob()
	}

	// 2. Metadata server: drop volatile state, replay the journal, remount
	// the namespace from disk, and check it.
	st := fs.mds.FS().Store()
	st.Crash()
	st.Recover()
	if err := fs.mds.FS().Remount(); err != nil {
		return rep, fmt.Errorf("pfs: recovery remount: %w", err)
	}
	// The in-memory allocator still charges blocks whose linking ops the
	// crash lost; rebuild it from the remounted namespace so the fsck
	// leak pass checks the truth, not the pre-crash residue.
	reclaimed, err := fs.mds.FS().RebuildAllocator()
	if err != nil {
		return rep, fmt.Errorf("pfs: recovery allocator rebuild: %w", err)
	}
	rep.MdsReclaimed = reclaimed
	rep.Mdfs = fs.mds.FS().FsckWith(mdfs.FsckOptions{
		Metrics: fs.cfg.Metrics,
		Trace:   fs.tracer,
	})

	// 3. IO servers: undo writes the media never got, then scrub.
	for _, srv := range fs.osts {
		srv.PowerFail()
		sr, err := srv.Scrub()
		if err != nil {
			return rep, fmt.Errorf("pfs: recovery scrub ost%d: %w", sr.OST, err)
		}
		rep.Scrubs = append(rep.Scrubs, sr)
	}

	// 4. Every server rebooted; the connection delivers again and the
	// client's suspicion resets (stale copies stay stale until repaired).
	for i := range fs.osts {
		fs.conn.Revive(ostAddr(i))
	}
	if fs.rep != nil {
		for i := range fs.osts {
			fs.rep.MarkUp(i)
		}
	}

	// 5. The client cache reboots empty.
	if fs.cache != nil {
		fs.cache.Reset()
	}

	// 6. Re-derive replica staleness from durable coverage and repair.
	rep.RepairedOK = true
	if fs.rep != nil {
		n, err := fs.remarkStaleLocked()
		if err != nil {
			return rep, err
		}
		rep.StaleMarked = n
		fs.mu.Unlock()
		err = fs.RepairDrain()
		fs.mu.Lock()
		if err != nil {
			return rep, fmt.Errorf("pfs: recovery repair: %w", err)
		}
		rep.RepairedOK = fs.rep.FullyReplicated()
	}
	return rep, nil
}

// remarkStaleLocked re-derives which replica members are behind. The
// manager's stale bits are client state and died in the crash; what
// survives is each member's written bitmap on its server. A member whose
// durable written coverage does not contain the member union is behind —
// it missed writes (it was down, or the crash tore its copy and the scrub
// demoted blocks) — and is marked stale for the repair engine. Callers
// hold fs.mu.
func (fs *FS) remarkStaleLocked() (int, error) {
	inos := make([]inode.Ino, 0, len(fs.files))
	for ino := range fs.files {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	marked := 0
	for _, ino := range inos {
		f := fs.files[ino]
		for c := range f.objects {
			members, obj, ok := fs.rep.Members(ino, c)
			if !ok {
				continue
			}
			covers := make([][]alloc.Range, len(members))
			var union alloc.RangeSet
			for i, m := range members {
				runs, err := fs.osts[m.OST].WrittenRuns(obj)
				if err != nil {
					// No such object on this member: it was created
					// while the server was unreachable. Empty coverage.
					continue
				}
				covers[i] = runs
				for _, r := range runs {
					union.Add(r)
				}
			}
			for i, m := range members {
				var have alloc.RangeSet
				for _, r := range covers[i] {
					have.Add(r)
				}
				behind := false
				for _, r := range union.Ranges() {
					if !have.Contains(r) {
						behind = true
						break
					}
				}
				if behind {
					fs.rep.MarkStale(ino, c, m.OST)
					marked++
				}
			}
		}
	}
	return marked, nil
}
