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
// The manager issues no RPCs and never calls back into the mount.

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
	return errors.As(err, &re)
}

// writeTargets returns component c's object and the servers a write
// fans out to: every live member, stale included (members skipped because
// their server is down go stale).
func (fs *FS) writeTargets(f *file, c int) (ost.ObjectID, []int, error) {
	if fs.rep == nil {
		return f.objects[c], fs.selfSets[c], nil
	}
	return fs.rep.WriteTargets(f.ino, c)
}

// members returns component c's object and per-member state, for the
// maintenance loop.
func (fs *FS) members(f *file, c int) ([]replica.MemberState, ost.ObjectID, bool) {
	if fs.rep == nil {
		return fs.selfMembers[c], f.objects[c], true
	}
	return fs.rep.Members(f.ino, c)
}

// bookReplica returns component c's first clean live member — the
// pick for bookkeeping queries (extent counts, layout summaries), which do
// not perturb the steering counters.
func (fs *FS) bookReplica(f *file, c int) (int, ost.ObjectID, bool) {
	if fs.rep == nil {
		return c, f.objects[c], true
	}
	return fs.rep.ReadReplica(f.ino, c)
}

// steerRead picks the member a read piece of component c goes to: the
// least-loaded clean live one not yet tried.
func (fs *FS) steerRead(f *file, c int, tried []int) (int, ost.ObjectID, bool) {
	if fs.rep == nil {
		return c, f.objects[c], true
	}
	return fs.rep.SteerRead(f.ino, c, tried, fs.load)
}

// memberStale reports whether server r's copy of component c is stale.
func (fs *FS) memberStale(f *file, c, r int) bool {
	members, _, _ := fs.members(f, c)
	for _, m := range members {
		if m.OST == r {
			return m.Stale
		}
	}
	return false
}

// down reports whether server i is currently suspected dead.
func (fs *FS) down(i int) bool { return fs.rep != nil && fs.rep.Down(i) }

// suspect is the failure detector: an error that is transport-level
// evidence against server r marks it down and reports true — the caller
// carries on with the rest of the set. Anything else, and every error on a
// mount without a manager (a set of one has no rest), reports false and is
// the caller's to return as it came.
func (fs *FS) suspect(err error, r int) bool {
	if fs.rep == nil || !repSuspect(err) {
		return false
	}
	fs.rep.MarkDown(r)
	return true
}

// stale is suspect for a failed mutation: the copy on r missed it and is
// excluded from reads until repaired.
func (fs *FS) stale(err error, f *file, c, r int) bool {
	if !fs.suspect(err, r) {
		return false
	}
	fs.rep.MarkStale(f.ino, c, r)
	return true
}

// failover is suspect for a failed query: the caller retries component c
// on another member.
func (fs *FS) failover(err error, f *file, c, r int) bool {
	if !fs.suspect(err, r) {
		return false
	}
	fs.rep.NoteFailover(f.ino, c, r)
	return true
}

// forget drops the replica state of a file whose objects are gone.
func (fs *FS) forget(f *file) {
	if fs.rep != nil {
		fs.rep.Remove(f.ino)
	}
}

// eachMember runs op on every live copy of component c — the loop
// under truncate, fsync, close, delete and the create-time fallocate.
// Members on down servers are skipped, and a transport failure marks the
// server down instead of failing the operation; with missed set (the op
// mutates data) either leaves the copy stale. One rule for application
// errors: from a clean member it is returned, from a stale member it is
// ignored — a stale member created while its server was down never got the
// object, and stays stale for the repair engine.
func (fs *FS) eachMember(f *file, c int, missed bool, op func(r int, obj ost.ObjectID) error) error {
	members, obj, ok := fs.members(f, c)
	if !ok {
		return nil
	}
	for _, m := range members {
		if !m.Down {
			err := op(m.OST, obj)
			if err == nil {
				continue
			}
			if !fs.suspect(err, m.OST) {
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

// repPlaceInputs gathers the per-OST capacity/load observations the
// spread policy scores: the allocator's free-space gauge, the device's
// accumulated busy time, and the client's current suspicion of the server.
func (fs *FS) repPlaceInputs() []replica.PlaceInput {
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

// createObjects gives a new file its objects: one id per stripe
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
// for an inode the caller is about to unlink.
func (fs *FS) createObjects(f *file) (err error) {
	sets := fs.selfSets
	if fs.rep != nil {
		sets, err = fs.mdsc.PlaceReplicas(f.ino, len(fs.osts), fs.rep.RF(), fs.repPlaceInputs())
		if err != nil {
			return err
		}
	}
	f.objects = make([]ost.ObjectID, len(fs.ostc))
	f.counts = make([]extentCount, len(fs.ostc))
	for c := range f.objects {
		fs.nextObj++
		f.objects[c] = ost.ObjectID(fs.nextObj)
	}
	defer func() {
		if err == nil {
			return
		}
		for c, obj := range f.objects {
			for _, r := range sets[c] {
				if !fs.down(r) {
					_ = fs.ostc[r].Delete(obj)
				}
			}
		}
		fs.forget(f)
	}()
	perOST := fs.componentSizeHint(f.sizeHint)
	for c, obj := range f.objects {
		acks := 0
		for _, r := range sets[c] {
			if fs.down(r) {
				continue
			}
			if err := fs.ostc[r].CreateObject(obj, perOST); err != nil {
				if fs.suspect(err, r) {
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
		// A new object maps nothing: its count is known without asking.
		if r, _, ok := fs.bookReplica(f, c); ok {
			fs.noteCount(f, c, r, 0)
		}
	}
	if fs.cfg.Policy == PolicyStatic && f.sizeHint > 0 {
		for c := range f.objects {
			n := fs.componentBlocks(f.sizeHint, c)
			if n == 0 {
				continue
			}
			f.dropCount(c)
			if err := fs.eachMember(f, c, true, func(r int, obj ost.ObjectID) error {
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
	if i < 0 || i >= len(fs.osts) {
		return fmt.Errorf("pfs: no OST %d", i)
	}
	fs.conn.Crash(ostAddr(i))
	fs.distrust(i) // the counts it reported lapse with it (extents.go)
	return nil
}

// ReviveOST restores a crashed IO server: the connection resumes delivery,
// the server reboots (volatile buffers and reservations lost, durable state
// kept), and the replica manager clears its suspicion — stale copies stay
// stale until repaired.
func (fs *FS) ReviveOST(i int) error {
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

// repPrepareDst readies the repair destination: the object is created
// fresh, or truncated to empty when it already exists (a stale copy's
// content is untrustworthy — the copy restarts from nothing).
func (fs *FS) repPrepareDst(jd replica.JobDesc) error {
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
	if fs.rep == nil {
		return false, nil
	}
	sp := fs.startOp(spanRepairStep)
	defer fs.endOp(sp)
	if !fs.rep.JobActive() {
		jd, ok := fs.rep.PlanRepair(fs.repPlaceInputs())
		if !ok {
			return false, nil
		}
		runs, err := fs.ostc[jd.Src].WrittenRuns(jd.Obj)
		if err != nil {
			if fs.suspect(err, jd.Src) {
				return true, nil // progress: learned the source is dead
			}
			return false, err
		}
		// The destination's copy is reset and rebuilt: a count cached
		// from it before it went stale no longer holds.
		if f := fs.files[jd.Key.Ino]; f != nil {
			f.dropCount(jd.Key.Comp)
		}
		if err := fs.repPrepareDst(jd); err != nil {
			if fs.suspect(err, jd.Dst) {
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
		return true, fs.repFinish()
	}
	pending := fs.osts[jd.Src].PendingRequests() + fs.osts[jd.Dst].PendingRequests()
	slice, ok := fs.rep.NextSlice(force, pending)
	if !ok {
		return false, nil // preempted or throttled: yield to foreground
	}
	// The read and the write, and the flushes after them, may force both
	// servers' delayed-allocation buffers.
	err := fs.ostc[jd.Src].Read(jd.Obj, slice.Start, slice.Count)
	fs.buffersFlushed(jd.Src)
	if err != nil {
		fs.rep.AbortJob()
		if fs.suspect(err, jd.Src) {
			return true, nil
		}
		return false, err
	}
	_, err = fs.ostc[jd.Dst].Write(jd.Obj, repairStream, slice.Start, slice.Count)
	fs.buffersFlushed(jd.Dst)
	if err != nil {
		fs.rep.AbortJob()
		if fs.suspect(err, jd.Dst) {
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
		return true, fs.repFinish()
	}
	return true, nil
}

// repFinish commits the in-flight job and publishes a changed replica
// set to the MDS layout table.
func (fs *FS) repFinish() error {
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
