package pfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"redbud/internal/core"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// newReplicated mounts a MiF config with n OSTs, rf-way replication, and a
// short retry budget (so a dead server is detected in a couple of simulated
// timeouts, not eight). No fault injector: CrashOST works on every mount.
func newReplicated(t *testing.T, n, rf int) *FS {
	t.Helper()
	cfg := MiF(n)
	rc := replica.DefaultConfig()
	rc.RF = rf
	cfg.Replication = &rc
	cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestReplicaPlacementNeverColocates(t *testing.T) {
	fs := newReplicated(t, 6, 3)
	for _, name := range []string{"a", "b", "c"} {
		f, err := fs.Create(fs.Root(), name, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := fs.Replication()
		for c := 0; c < 6; c++ {
			set, _, ok := rep.ReplicaSet(f.Ino(), c)
			if !ok || len(set) != 3 {
				t.Fatalf("%s comp %d: set %v ok=%v, want 3 replicas", name, c, set, ok)
			}
			seen := make(map[int]bool)
			for _, r := range set {
				if seen[r] {
					t.Fatalf("%s comp %d: replicas co-located: %v", name, c, set)
				}
				seen[r] = true
			}
		}
	}
}

func TestReplicatedWriteFanoutAndReadRoundTrip(t *testing.T) {
	fs := newReplicated(t, 4, 2)
	f, err := fs.Create(fs.Root(), "r.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 16; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := f.Read(0, 256); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Replication().Stats()
	if st.FanoutWrites == 0 {
		t.Fatal("2-way replication produced no fan-out writes")
	}
	if st.SteeredReads == 0 {
		t.Fatal("reads bypassed steering")
	}
	if st.Failovers != 0 || st.OSTDownEvents != 0 {
		t.Fatalf("healthy run saw failures: %+v", st)
	}
}

// TestDeleteDropsReplicaLayout: deleting a replicated file unlinks it at
// the MDS, and the unlink takes the file's replica layout with it — the
// table used to keep an entry for every inode that ever had one.
func TestDeleteDropsReplicaLayout(t *testing.T) {
	fs := newReplicated(t, 4, 2)
	f, err := fs.Create(fs.Root(), "gone.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MDS().GetReplicaLayout(f.Ino()); err != nil {
		t.Fatalf("live file has no replica layout: %v", err)
	}
	if err := fs.Delete(fs.Root(), "gone.dat"); err != nil {
		t.Fatal(err)
	}
	if sets, err := fs.MDS().GetReplicaLayout(f.Ino()); err == nil {
		t.Fatalf("deleted file keeps its replica layout %v", sets)
	}
}

// TestSteeringNeverSelectsDownReplica crashes an OST and reads the whole
// file twice: the first pass discovers the crash through its own timeout and
// fails over; once the server is suspected, steering must not route a single
// further read at it — and every read still succeeds.
func TestSteeringNeverSelectsDownReplica(t *testing.T) {
	fs := newReplicated(t, 4, 3)
	f, err := fs.Create(fs.Root(), "s.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 16; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	// The crashed server's disk stops accruing busy time while the others
	// keep serving, so load steering is drawn straight to it within a few
	// requests; the failover path must absorb that.
	for i := int64(0); i < 16; i++ {
		if err := f.Read(i*16, 16); err != nil {
			t.Fatalf("read %d across a crashed OST must fail over, got %v", i, err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(1) {
		t.Fatal("crash went undetected over a full-file read")
	}
	st := rep.Stats()
	if st.Failovers == 0 {
		t.Fatal("detection must be counted as a failover")
	}
	routed := rep.SteeredReads(1)
	for i := int64(0); i < 16; i++ {
		if err := f.Read(i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.SteeredReads(1); got != routed {
		t.Fatalf("steering picked the down OST again: %d -> %d routed reads", routed, got)
	}
}

// TestRepairRestoresReplicationFactor is the core failover property: after
// an OST crash is detected, draining the repair engine rebuilds every
// component back to full strength on the survivors, and the data stays
// readable throughout.
func TestRepairRestoresReplicationFactor(t *testing.T) {
	fs := newReplicated(t, 6, 3)
	f, err := fs.Create(fs.Root(), "k.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 24; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(0); err != nil {
		t.Fatal(err)
	}
	// Writes into the outage detect the crash, skip the dead member, and
	// leave its copies stale.
	for i := int64(0); i < 24; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(0) || rep.UnderReplicated() == 0 {
		t.Fatalf("outage not reflected: down=%v under=%d", rep.Down(0), rep.UnderReplicated())
	}
	if err := fs.RepairDrain(); err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated() {
		t.Fatalf("repair drain left %d components under-replicated", rep.UnderReplicated())
	}
	// The dead server is out of every rebuilt set, with no co-location.
	for c := 0; c < 6; c++ {
		set, _, ok := rep.ReplicaSet(f.Ino(), c)
		if !ok || len(set) != 3 {
			t.Fatalf("comp %d: set %v ok=%v", c, set, ok)
		}
		seen := make(map[int]bool)
		for _, r := range set {
			if r == 0 {
				t.Fatalf("comp %d: rebuilt set %v still holds the dead ost0", c, set)
			}
			if seen[r] {
				t.Fatalf("comp %d: rebuilt set %v co-locates", c, set)
			}
			seen[r] = true
		}
	}
	st := rep.Stats()
	if st.RepairsDone == 0 || st.RepairBlocks == 0 {
		t.Fatalf("repair left no trace: %+v", st)
	}
	// Full read-back with the server still dark.
	if err := f.Read(0, 24*16); err != nil {
		t.Fatalf("read-back after repair: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReviveClearsSuspicionAndCatchesUp revives a crashed OST and lets the
// repair engine catch its stale copies up in place (no set change).
func TestReviveClearsSuspicionAndCatchesUp(t *testing.T) {
	fs := newReplicated(t, 4, 2)
	f, err := fs.Create(fs.Root(), "v.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(1) {
		t.Fatal("outage writes did not detect the crash")
	}
	if err := fs.ReviveOST(1); err != nil {
		t.Fatal(err)
	}
	if rep.Down(1) {
		t.Fatal("revive must clear the suspicion")
	}
	if rep.UnderReplicated() == 0 {
		t.Fatal("stale copies must keep the file under-replicated after revive")
	}
	if err := fs.RepairDrain(); err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated() {
		t.Fatalf("catch-up drain left %d components under-replicated", rep.UnderReplicated())
	}
	// Catch-up repairs rebuild in place: ost1 is still a member.
	found := false
	for c := 0; c < 4; c++ {
		set, _, _ := rep.ReplicaSet(f.Ino(), c)
		for _, r := range set {
			if r == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("revived ost1 dropped from every replica set")
	}
}

// memberStale reports whether server r's copy of component c of f is stale.
func memberStale(t *testing.T, fs *FS, f *File, c, r int) bool {
	t.Helper()
	members, _, ok := fs.Replication().Members(f.Ino(), c)
	if !ok {
		t.Fatalf("component %d has no replica state", c)
	}
	for _, m := range members {
		if m.OST == r {
			return m.Stale
		}
	}
	t.Fatalf("ost%d is no member of component %d", r, c)
	return false
}

// TestWriteIgnoresStaleMemberWithoutObject: a file created while ost1 was
// down has no object there, and after the revive its stale copy answers
// every write with "no such object". The write goes through on the clean
// copy, the stale one stays stale, and repair builds it.
func TestWriteIgnoresStaleMemberWithoutObject(t *testing.T) {
	fs := newReplicated(t, 2, 2)
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(fs.Root(), "late.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.ReviveOST(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 1); err != nil {
		t.Fatalf("write with a stale member lacking the object: %v", err)
	}
	if !memberStale(t, fs, f, 0, 1) {
		t.Fatal("ost1's copy missed the write but is not stale")
	}
	if err := fs.RepairDrain(); err != nil {
		t.Fatal(err)
	}
	if !fs.Replication().FullyReplicated() {
		t.Fatalf("repair left %d components under-replicated", fs.Replication().UnderReplicated())
	}
	if err := f.Read(0, 1); err != nil {
		t.Fatalf("read-back after repair: %v", err)
	}
}

// TestWriteErrorStalesMembersThatTookThePiece: when a clean member refuses
// a piece with an application error, the write fails — and the member that
// already took the piece is marked stale, since the client was told the
// piece did not land.
func TestWriteErrorStalesMembersThatTookThePiece(t *testing.T) {
	fs := newReplicated(t, 2, 2)
	f, err := fs.Create(fs.Root(), "torn.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	set, obj, ok := fs.Replication().ReplicaSet(f.Ino(), 0)
	if !ok || len(set) != 2 {
		t.Fatalf("component 0: set %v ok=%v, want 2 members", set, ok)
	}
	if err := fs.OST(set[1]).Delete(obj); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 1); err == nil {
		t.Fatal("write to a clean member without the object succeeded")
	}
	if !memberStale(t, fs, f, 0, set[0]) {
		t.Fatalf("ost%d took the piece of a failed write but is still clean", set[0])
	}
}

// runDataPathScript drives every file operation of the data path once on a
// fresh mount of cfg — create (with a size hint on the static policy, which
// fallocates it), write, extent count, read, truncate, fsync, close, reopen,
// read, delete — and returns what the client saw: one line per observation.
// The mount comes back with both files deleted.
func runDataPathScript(t *testing.T, cfg Config) (*FS, []string) {
	t.Helper()
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	must := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	var hint int64
	if cfg.Policy == PolicyStatic {
		hint = 256
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for _, name := range []string{"a.dat", "b.dat"} {
		f, err := fs.Create(fs.Root(), name, hint)
		must("create", err)
		for i := int64(0); i < 16; i++ {
			must("write", f.Write(stream, i*16, 16))
		}
		fs.Flush()
		n, err := fs.TotalExtents(f)
		must("extents", err)
		// How many segments there are is the servers' business — it moves
		// with what shares their disks, so with the set size; that there are
		// some is the client's.
		seen = append(seen, fmt.Sprintf("%s: has extents after writes %v", name, n > 0))
		must("read", f.Read(0, 256))
		must("truncate", f.Truncate(128))
		must("fsync", f.Fsync())
		must("close", f.Close())
		h, err := fs.Open(fs.Root(), name)
		must("reopen", err)
		must("read after reopen", h.Read(0, 128))
		n, err = fs.TotalExtents(h)
		must("extents", err)
		seen = append(seen, fmt.Sprintf("%s: ino match %v, has extents after truncate %v, read past it fails %v",
			name, h.Ino() == f.Ino(), n > 0, h.Read(128, 128) != nil))
	}
	for _, name := range []string{"a.dat", "b.dat"} {
		must("delete", fs.Delete(fs.Root(), name))
		_, err := fs.Open(fs.Root(), name)
		seen = append(seen, fmt.Sprintf("%s: open after delete fails %v", name, err != nil))
	}
	return fs, seen
}

// TestRF1PathIsByteIdentical is the identity guard of the one data path: a
// mount configured with Replication RF=1 runs every operation over sets of
// one without a replica manager, and must produce exactly the telemetry
// (full registry and simulated clock) of a mount with no replication config
// at all.
func TestRF1PathIsByteIdentical(t *testing.T) {
	run := func(policy PolicyKind, rc *replica.Config) ([]byte, sim.Ns) {
		cfg := MiF(4).WithPolicy(policy)
		cfg.Replication = rc
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(nil)
		cfg.Metrics = reg
		cfg.Trace = tr
		fs, _ := runDataPathScript(t, cfg)
		if fs.Replication() != nil {
			t.Fatal("RF <= 1 mount carries a replica manager")
		}
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return snap, tr.Now()
	}
	for _, policy := range []PolicyKind{PolicyOnDemand, PolicyStatic} {
		baseSnap, baseNow := run(policy, nil)
		rf1Snap, rf1Now := run(policy, &replica.Config{RF: 1})
		if baseNow != rf1Now {
			t.Fatalf("%v: simulated clocks diverged: %d vs %d ns", policy, baseNow, rf1Now)
		}
		if !bytes.Equal(baseSnap, rf1Snap) {
			t.Fatalf("%v: RF=1 telemetry diverged from the unreplicated mount:\n%s\nvs\n%s",
				policy, baseSnap, rf1Snap)
		}
	}
}

// TestDataPathSameAtEveryRF runs the same script at every replication
// factor: the client must see the same thing whatever the set size, and once
// the files are deleted nothing may be left anywhere — no object, no
// allocated block, no replica state.
func TestDataPathSameAtEveryRF(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyOnDemand, PolicyStatic} {
		var want []string
		for _, rc := range []*replica.Config{nil, {RF: 1}, {RF: 2}, {RF: 3}} {
			name := fmt.Sprintf("%v/unreplicated", policy)
			if rc != nil {
				name = fmt.Sprintf("%v/RF%d", policy, rc.RF)
			}
			t.Run(name, func(t *testing.T) {
				cfg := MiF(4).WithPolicy(policy)
				cfg.Replication = rc
				fs, seen := runDataPathScript(t, cfg)
				if want == nil {
					want = seen
				}
				if !reflect.DeepEqual(seen, want) {
					t.Fatalf("client-visible results differ from the unreplicated mount:\n%q\nvs\n%q", seen, want)
				}
				requireEmpty(t, fs)
			})
		}
	}
}

// requireEmpty asserts that nothing is left on any IO server or in the
// replica manager of a mount whose files were all deleted.
func requireEmpty(t *testing.T, fs *FS) {
	t.Helper()
	for i := 0; i < fs.OSTs(); i++ {
		srv := fs.OST(i)
		if n, used := srv.ObjectCount(), srv.UsedBlocks(); n != 0 || used != 0 {
			t.Fatalf("OST %d keeps %d objects, %d blocks", i, n, used)
		}
		if rep := srv.CheckConsistency(); !rep.Clean() {
			t.Fatalf("OST %d inconsistent: %v", i, rep.Problems)
		}
	}
	if rep := fs.Replication(); rep != nil && rep.Components() != 0 {
		t.Fatalf("replica manager keeps %d components", rep.Components())
	}
}
