package pfs

// This file is where the mount's one data path meets replication. Every
// file operation in pfs.go is written once, as a loop over the replica set
// of each stripe component, and the set helpers below are the only places on
// that path that ask whether a replica manager exists. With one (RF > 1)
// they answer from it: writes fan out to all live copies (every live member
// must acknowledge; members on down servers are skipped and marked stale),
// reads steer to the least-loaded clean copy and fail over on transport
// errors. Without one, every set is the stripe-aligned server alone, taken
// from the file's own object list and a per-mount table: nothing is
// allocated, nothing is ever suspected, and an RPC error is returned exactly
// as it came. Object creation, OST crash/revive and the repair loop follow.
// The manager issues no RPCs — the lock order stays fs.mu, then manager.mu.

import (
	"errors"
	"fmt"

	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/ost"
	"redbud/internal/replica"
	"redbud/internal/rpc"
)

// repairStream is the write-stream identity of re-replication copies, kept
// distinct from every client stream so the placement policies on the
// destination treat the rebuild as its own sequential writer.
var repairStream = core.StreamID{Client: 0xFFFFFFFF, PID: 0xFFFFFFFF}

// repSuspect reports whether an error is transport-level evidence that the
// endpoint is unreachable (an exhausted retry budget, a timeout, or an
// unavailability), as opposed to an application error the server itself
// computed and answered with.
func repSuspect(err error) bool {
	if errors.Is(err, rpc.ErrRetriesExhausted) {
		return true
	}
	var re *rpc.Error
	return errors.As(err, &re) && re.Kind != rpc.KindBadRequest
}

// writeTargetsLocked returns component c's object and the servers a write
// fans out to: every live member, stale included (members skipped because
// their server is down go stale). Callers hold fs.mu.
func (fs *FS) writeTargetsLocked(f *file, c int) (ost.ObjectID, []int, error) {
	if fs.rep == nil {
		return f.objects[c], fs.selfSets[c], nil
	}
	return fs.rep.WriteTargets(f.ino, c)
}

// membersLocked returns component c's object and per-member state, for the
// maintenance loop. Callers hold fs.mu.
func (fs *FS) membersLocked(f *file, c int) ([]replica.MemberState, ost.ObjectID, bool) {
	if fs.rep == nil {
		return fs.selfMembers[c], f.objects[c], true
	}
	return fs.rep.Members(f.ino, c)
}

// bookReplicaLocked returns component c's first clean live member — the
// pick for bookkeeping queries (extent counts, layout summaries), which do
// not perturb the steering counters. Callers hold fs.mu.
func (fs *FS) bookReplicaLocked(f *file, c int) (int, ost.ObjectID, bool) {
	if fs.rep == nil {
		return c, f.objects[c], true
	}
	return fs.rep.ReadReplica(f.ino, c)
}

// steerReadLocked picks the member a read piece of component c goes to: the
// least-loaded clean live one not yet tried. Callers hold fs.mu.
func (fs *FS) steerReadLocked(f *file, c int, tried []int) (int, ost.ObjectID, bool) {
	if fs.rep == nil {
		return c, f.objects[c], true
	}
	return fs.rep.SteerRead(f.ino, c, tried, fs.load)
}

// downLocked reports whether server i is currently suspected dead. Callers
// hold fs.mu.
func (fs *FS) downLocked(i int) bool { return fs.rep != nil && fs.rep.Down(i) }

// suspectLocked is the failure detector: an error that is transport-level
// evidence against server r marks it down and reports true — the caller
// carries on with the rest of the set. Anything else, and every error on a
// mount without a manager (a set of one has no rest), reports false and is
// the caller's to return as it came. Callers hold fs.mu.
func (fs *FS) suspectLocked(err error, r int) bool {
	if fs.rep == nil || !repSuspect(err) {
		return false
	}
	fs.rep.MarkDown(r)
	return true
}

// staleLocked is suspectLocked for a failed mutation: the copy on r missed
// it and is excluded from reads until repaired. Callers hold fs.mu.
func (fs *FS) staleLocked(err error, f *file, c, r int) bool {
	if !fs.suspectLocked(err, r) {
		return false
	}
	fs.rep.MarkStale(f.ino, c, r)
	return true
}

// failoverLocked is suspectLocked for a failed query: the caller retries
// component c on another member. Callers hold fs.mu.
func (fs *FS) failoverLocked(err error, f *file, c, r int) bool {
	if !fs.suspectLocked(err, r) {
		return false
	}
	fs.rep.NoteFailover(f.ino, c, r)
	return true
}

// forgetLocked drops the replica state of a file whose objects are gone.
// Callers hold fs.mu.
func (fs *FS) forgetLocked(f *file) {
	if fs.rep != nil {
		fs.rep.Remove(f.ino)
	}
}

// eachMemberLocked runs op on every live copy of component c — the loop
// under truncate, fsync, close, delete and the create-time fallocate.
// Members on down servers are skipped, and a transport failure marks the
// server down instead of failing the operation; with missed set (the op
// mutates data) either leaves the copy stale. One rule for application
// errors: from a clean member it is returned, from a stale member it is
// ignored — a stale member created while its server was down never got the
// object, and stays stale for the repair engine. Callers hold fs.mu.
func (fs *FS) eachMemberLocked(f *file, c int, missed bool, op func(r int, obj ost.ObjectID) error) error {
	members, obj, ok := fs.membersLocked(f, c)
	if !ok {
		return nil
	}
	for _, m := range members {
		if !m.Down {
			err := op(m.OST, obj)
			if err == nil {
				continue
			}
			if !fs.suspectLocked(err, m.OST) {
				if m.Stale {
					continue
				}
				return err
			}
		}
		// The server is down, or just proved to be: its copy missed this.
		if missed {
			fs.rep.MarkStale(f.ino, c, m.OST)
		}
	}
	return nil
}

// repPlaceInputsLocked gathers the per-OST capacity/load observations the
// spread policy scores: the allocator's free-space gauge, the device's
// accumulated busy time, and the client's current suspicion of the server.
// Callers hold fs.mu.
func (fs *FS) repPlaceInputsLocked() []replica.PlaceInput {
	in := make([]replica.PlaceInput, len(fs.osts))
	for i, srv := range fs.osts {
		in[i] = replica.PlaceInput{
			OST:        i,
			FreeBlocks: srv.Allocator().FreeBlocks(),
			BusyNs:     srv.Disk().Stats().BusyNs,
			Down:       fs.rep.Down(i),
		}
	}
	return in
}

// createObjectsLocked gives a new file its objects: one id per stripe
// component from the MDS-side counter, taken up front in index order, then
// each component's object created on every server of its set — the sets the
// MDS places from the client's observations on a replicated mount, the
// stripe-aligned server alone otherwise. A server that fails its create at
// the transport is marked down and its copy starts stale (the repair engine
// will build it); the create succeeds as long as each component has at
// least one live copy. A create that fails undoes what it did here, best
// effort: each id is deleted on the reachable members of its set (one that
// never saw the id reports an unknown object, which is the state wanted)
// and the manager forgets the file, so nothing keeps space or repair state
// for an inode the caller is about to unlink. Callers hold fs.mu.
func (fs *FS) createObjectsLocked(f *file) (err error) {
	sets := fs.selfSets
	if fs.rep != nil {
		sets, err = fs.mdsc.PlaceReplicas(f.ino, len(fs.osts), fs.rep.RF(), fs.repPlaceInputsLocked())
		if err != nil {
			return err
		}
	}
	for range fs.ostc {
		fs.nextObj++
		f.objects = append(f.objects, ost.ObjectID(fs.nextObj))
	}
	defer func() {
		if err == nil {
			return
		}
		for c, obj := range f.objects {
			for _, r := range sets[c] {
				if !fs.downLocked(r) {
					_ = fs.ostc[r].Delete(obj)
				}
			}
		}
		fs.forgetLocked(f)
	}()
	perOST := fs.componentSizeHint(f.sizeHint)
	for c, obj := range f.objects {
		acks := 0
		for _, r := range sets[c] {
			if fs.downLocked(r) {
				continue
			}
			if err := fs.ostc[r].CreateObject(obj, perOST); err != nil {
				if fs.suspectLocked(err, r) {
					continue
				}
				return err
			}
			acks++
		}
		if acks == 0 {
			return fmt.Errorf("pfs: create: no live replica for component %d", c)
		}
		if fs.rep != nil {
			fs.rep.Add(f.ino, c, obj, sets[c])
		}
	}
	if fs.cfg.Policy == PolicyStatic && f.sizeHint > 0 {
		for c := range f.objects {
			n := fs.componentBlocks(f.sizeHint, c)
			if n == 0 {
				continue
			}
			if err := fs.eachMemberLocked(f, c, true, func(r int, obj ost.ObjectID) error {
				return fs.ostc[r].Fallocate(obj, core.StreamID{}, n)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// CrashOST blackholes IO server i on the mount's connection: every RPC to
// it is dropped until ReviveOST, so clients discover the crash through
// their own timeouts. Works on every mount, with or without Config.RPC.
// Fault.
func (fs *FS) CrashOST(i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i < 0 || i >= len(fs.osts) {
		return fmt.Errorf("pfs: no OST %d", i)
	}
	fs.conn.Crash(ostAddr(i))
	return nil
}

// ReviveOST restores a crashed IO server: the connection resumes delivery,
// the server reboots (volatile buffers and reservations lost, durable state
// kept), and the replica manager clears its suspicion — stale copies stay
// stale until repaired.
func (fs *FS) ReviveOST(i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i < 0 || i >= len(fs.osts) {
		return fmt.Errorf("pfs: no OST %d", i)
	}
	fs.conn.Revive(ostAddr(i))
	fs.osts[i].Restart()
	if fs.rep != nil {
		fs.rep.MarkUp(i)
	}
	return nil
}

// repPrepareDstLocked readies the repair destination: the object is created
// fresh, or truncated to empty when it already exists (a stale copy's
// content is untrustworthy — the copy restarts from nothing). Callers hold
// fs.mu.
func (fs *FS) repPrepareDstLocked(jd replica.JobDesc) error {
	if err := fs.ostc[jd.Dst].CreateObject(jd.Obj, 0); err != nil {
		if repSuspect(err) {
			return err
		}
		// Already exists: reset it.
		return fs.ostc[jd.Dst].Truncate(jd.Obj, 0)
	}
	return nil
}

// RepairStep advances the background re-replication engine by one unit of
// work: arming the next planned job, copying one paced slice, or committing
// a finished job (pushing the changed replica set to the MDS). force
// bypasses the throttle and foreground preemption — drain mode. It returns
// whether any progress was made; interleave non-force calls with foreground
// traffic, as defrag does.
func (fs *FS) RepairStep(force bool) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.rep == nil {
		return false, nil
	}
	sp := fs.startOpLocked("repair-step")
	defer fs.endOpLocked(sp)
	if !fs.rep.JobActive() {
		jd, ok := fs.rep.PlanRepair(fs.repPlaceInputsLocked())
		if !ok {
			return false, nil
		}
		runs, err := fs.ostc[jd.Src].WrittenRuns(jd.Obj)
		if err != nil {
			if fs.suspectLocked(err, jd.Src) {
				return true, nil // progress: learned the source is dead
			}
			return false, err
		}
		if err := fs.repPrepareDstLocked(jd); err != nil {
			if fs.suspectLocked(err, jd.Dst) {
				return true, nil
			}
			return false, err
		}
		// Crash point: the destination copy was just reset to empty for the
		// rebuild — after a recovery it must be rediscovered as stale (its
		// written coverage is behind) and repaired from scratch.
		if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairDstReset, 0); ok {
			fs.cfg.Crash.Kill()
		}
		fs.rep.StartJob(jd, runs)
		return true, nil
	}
	jd, _ := fs.rep.JobDescActive()
	if fs.rep.JobRemaining() == 0 {
		return true, fs.repFinishLocked()
	}
	pending := fs.osts[jd.Src].PendingRequests() + fs.osts[jd.Dst].PendingRequests()
	slice, ok := fs.rep.NextSlice(force, pending)
	if !ok {
		return false, nil // preempted or throttled: yield to foreground
	}
	if err := fs.ostc[jd.Src].Read(jd.Obj, slice.Start, slice.Count); err != nil {
		fs.rep.AbortJob()
		if fs.suspectLocked(err, jd.Src) {
			return true, nil
		}
		return false, err
	}
	if err := fs.ostc[jd.Dst].Write(jd.Obj, repairStream, slice.Start, slice.Count); err != nil {
		fs.rep.AbortJob()
		if fs.suspectLocked(err, jd.Dst) {
			return true, nil
		}
		return false, err
	}
	// Crash point: a repair slice was accepted by the destination but sits
	// in its volatile queue — the half-built copy must come back stale.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairCopyMedia, slice.Count); ok {
		fs.cfg.Crash.Kill()
	}
	// Drain both endpoints so the copy's own queued device work never
	// preempts its next slice.
	_, _ = fs.ostc[jd.Src].Flush()
	_, _ = fs.ostc[jd.Dst].Flush()
	fs.rep.AdvanceJob(slice.Count)
	if fs.rep.JobRemaining() == 0 {
		return true, fs.repFinishLocked()
	}
	return true, nil
}

// repFinishLocked commits the in-flight job and publishes a changed replica
// set to the MDS layout table. Callers hold fs.mu.
func (fs *FS) repFinishLocked() error {
	// Crash point: the copy is byte-complete but the job was never
	// committed — the replica table still calls the destination stale, and
	// the layout publication never reached the MDS. Recovery re-runs the
	// (idempotent) repair.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairCommitLayout, 0); ok {
		fs.cfg.Crash.Kill()
	}
	done := fs.rep.FinishJob()
	if done.SetChanged {
		return fs.mdsc.SetReplicaLayout(done.Key.Ino, done.Key.Comp, done.Replicas)
	}
	return nil
}

// RepairDrain force-steps the repair engine until no further progress is
// possible — every repairable component is back at full strength (or no
// live capacity remains to repair onto). Batch tools and the failover
// benchmark's final phase use it.
func (fs *FS) RepairDrain() error {
	for {
		worked, err := fs.RepairStep(true)
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
}
