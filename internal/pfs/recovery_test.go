package pfs

import (
	"fmt"
	"strings"
	"testing"

	"redbud/internal/core"
)

// TestFullSystemRestart exercises the whole stack's durability story: the
// MDS crashes and replays its journal, the IO servers reboot losing their
// volatile state (sequential windows, prefetch cache), and the namespace,
// data, and persistent preallocations all survive.
func TestFullSystemRestart(t *testing.T) {
	fs := newMiF(t, 4)
	dir, err := fs.Mkdir(fs.Root(), "run")
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	var handles []*File
	for i := 0; i < 10; i++ {
		f, err := fs.Create(dir, fmt.Sprintf("out%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < 64; off += 8 {
			if err := f.Write(stream, off, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	// Commit the MDS journal without checkpointing, then crash it.
	mfs := fs.MDS().FS()
	if err := mfs.Store().Commit(); err != nil {
		t.Fatal(err)
	}
	mfs.Store().Crash()
	mfs.Store().Recover()
	if err := mfs.Remount(); err != nil {
		t.Fatal(err)
	}
	// Reboot every IO server.
	for i := 0; i < fs.OSTs(); i++ {
		fs.OST(i).Restart()
	}

	// Namespace intact.
	recs, err := fs.MDS().ReaddirPlus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("readdirplus after restart = %d entries, want 10", len(recs))
	}
	// Data intact and verified end to end.
	for _, f := range handles {
		if err := f.Read(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	// No volatile reservations survive.
	for i := 0; i < fs.OSTs(); i++ {
		if n := fs.OST(i).Allocator().ReservedBlocks(); n != 0 {
			t.Fatalf("OST %d still holds %d reserved blocks after reboot", i, n)
		}
	}
	// The system keeps working: new writes, deletes, fsck-clean MDS.
	f, err := fs.Create(dir, "post-restart", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(stream, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(dir, "out3"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if report := mfs.Fsck(); !report.Clean() {
		t.Fatalf("MDS not clean after restart cycle:\n%v", report.Problems)
	}
}

// TestTruncateThroughStripe verifies the striped truncate path.
func TestTruncateThroughStripe(t *testing.T) {
	fs := newMiF(t, 4)
	f, err := fs.Create(fs.Root(), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	if err := f.Write(stream, 0, 1024); err != nil {
		t.Fatal(err)
	}
	fs.Flush()
	if err := f.Truncate(300); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, 300); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(300, 8); err == nil {
		t.Fatal("reading past the truncation point should fail")
	}
	// Owned space shrank on every component.
	var owned int64
	for i := 0; i < fs.OSTs(); i++ {
		n, err := fs.OST(i).OwnedBlocks(f.ObjectID(i))
		if err != nil {
			t.Fatal(err)
		}
		owned += n
	}
	if owned >= 1024 {
		t.Fatalf("owned after truncate = %d, want < 1024", owned)
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate should fail")
	}
}

// TestCrashRecoverDeletesLostFilesObjects: the objects of a file whose
// create the journal lost belong to nobody after recovery, so recovery
// deletes every copy — on a plain and on a replicated mount, no object and
// no used block remains on any server, and none counts as leaked.
func TestCrashRecoverDeletesLostFilesObjects(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   func(t *testing.T) *FS
	}{
		{"rf1", func(t *testing.T) *FS { return newMiF(t, 4) }},
		{"rf2", func(t *testing.T) *FS { return newReplicated(t, 4, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.fs(t)
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create(fs.Root(), "lost", 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 64); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.CrashRecover(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fs.OSTs(); i++ {
				srv := fs.OST(i)
				if n, used := srv.ObjectCount(), srv.UsedBlocks(); n != 0 || used != 0 {
					t.Errorf("ost%d after recovery: %d objects, %d used blocks; want 0 and 0", i, n, used)
				}
				if rep := srv.CheckConsistency(); rep.LeakedBlocks != 0 || !rep.Clean() {
					t.Errorf("ost%d after recovery: %d leaked blocks, problems %v", i, rep.LeakedBlocks, rep.Problems)
				}
			}
		})
	}
}

// TestCrashRecoverDropsLostCreates: a file whose create the MDS journal
// lost is gone from the mount after recovery. Its inode number goes to the
// next create, here a directory, and the old handle's every op fails
// naming the file instead of reaching the number's new owner.
func TestCrashRecoverDropsLostCreates(t *testing.T) {
	fs := newMiF(t, 4)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(fs.Root(), "lost", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(core.StreamID{Client: 1, PID: 1}, 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CrashRecover(); err != nil {
		t.Fatal(err)
	}
	dir, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	if dir != f.Ino() {
		t.Fatalf("the directory got inode %v, not the lost file's %v: the probe needs the reuse", dir, f.Ino())
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"write", func() error { return f.Write(core.StreamID{Client: 1, PID: 1}, 8, 8) }},
		{"read", func() error { return f.Read(0, 8) }},
		{"truncate", func() error { return f.Truncate(4) }},
		{"fsync", f.Fsync},
		{"close", f.Close},
	} {
		if err := op.run(); err == nil || !strings.Contains(err.Error(), "lost: no such file") {
			t.Errorf("%s on the lost file's handle: %v, want an error naming it", op.name, err)
		}
	}
	if _, err := fs.Open(fs.Root(), "lost"); err == nil {
		t.Error("the lost file opens after the recovery")
	}
}
