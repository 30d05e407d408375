package workload

import (
	"errors"
	"fmt"

	"redbud/internal/disk"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/trace"
)

// Target is what Apply runs ops against: a bare MDS server, as Metarates
// and aging drive it, or a mount, as the other drivers do. It keeps the
// interpreter's state from one Apply call to the next: the directory,
// inode and file slots and the current file.
type Target struct {
	srv   *mds.Server
	mount *pfs.FS         // nil on a bare server
	dirs  []inode.Ino     // directory slots; slot 0 is the root
	inos  []inode.Ino     // inode slots, in create order
	files []*pfs.File     // file slots, in open order; a closed file's is nil
	cur   int             // the current file's slot, -1 when none is current
	exts  []extent.Extent // setlayout's scratch, reused by every op
}

// ServerTarget returns a target that runs ops on a bare MDS server, with
// no RPC.
func ServerTarget(srv *mds.Server) *Target {
	return &Target{srv: srv, dirs: []inode.Ino{srv.Root()}, cur: -1}
}

// MountTarget returns a target that runs ops on a mount. Mkdir, sync and
// the file ops go through the mount and its RPCs; the other metadata ops
// go to the mount's MDS server directly, as the kernel tree's stat and
// readdirplus always have.
func MountTarget(fs *pfs.FS) *Target {
	return &Target{srv: fs.MDS(), mount: fs, dirs: []inode.Ino{fs.Root()}, cur: -1}
}

// File returns the current file, nil when none is current.
func (t *Target) File() *pfs.File {
	if t.cur < 0 {
		return nil
	}
	return t.files[t.cur]
}

// Apply runs ops against t in order, stopping at the first that fails. It
// measures nothing: a driver reads its counters between calls.
func Apply(t *Target, ops []trace.Op) error {
	for i := range ops {
		if err := t.apply(&ops[i]); err != nil {
			return fmt.Errorf("workload: %v: %w", ops[i], err)
		}
	}
	return nil
}

// apply runs one op: the server or mount call its kind stands for.
func (t *Target) apply(op *trace.Op) error {
	var dir inode.Ino // the directory of the ops that name one
	switch op.Kind {
	case trace.OpWrite, trace.OpRead, trace.OpClose, trace.OpSync, trace.OpDropCaches, trace.OpFsync:
	case trace.OpUse:
		if op.Slot >= int64(len(t.files)) || t.files[op.Slot] == nil {
			return fmt.Errorf("no open file in slot %d", op.Slot)
		}
	case trace.OpSetLayout:
		if op.Slot >= int64(len(t.inos)) {
			return fmt.Errorf("no inode slot %d", op.Slot)
		}
	default:
		if op.Slot >= int64(len(t.dirs)) {
			return fmt.Errorf("no directory slot %d", op.Slot)
		}
		dir = t.dirs[op.Slot]
	}
	file := t.File()
	switch op.Kind {
	case trace.OpWrite, trace.OpRead, trace.OpFsync, trace.OpClose:
		if file == nil {
			return errors.New("no file is open")
		}
	case trace.OpCreateFile, trace.OpOpen, trace.OpDelete, trace.OpDeleteIfPresent:
		if t.mount == nil {
			return errors.New("a file op needs a mount")
		}
	}
	srv := t.srv
	var err error
	switch op.Kind {
	case trace.OpMkdir:
		mkdir := srv.Mkdir
		if t.mount != nil {
			mkdir = t.mount.Mkdir
		}
		var ino inode.Ino
		if ino, err = mkdir(dir, op.Name); err == nil {
			t.dirs = append(t.dirs, ino)
		}
	case trace.OpRmdir:
		err = srv.Rmdir(dir, op.Name)
	case trace.OpCreate:
		var ino inode.Ino
		if ino, err = srv.Create(dir, op.Name); err == nil {
			t.inos = append(t.inos, ino)
		}
	case trace.OpUtime:
		var ino inode.Ino
		if ino, err = srv.Lookup(dir, op.Name); err == nil {
			err = srv.Utime(ino)
		}
	case trace.OpStat:
		_, err = srv.StatName(dir, op.Name)
	case trace.OpReaddirPlus:
		var recs []inode.Inode
		if recs, err = srv.ReaddirPlus(dir); err == nil && int64(len(recs)) != op.Count {
			err = fmt.Errorf("%d entries, want %d", len(recs), op.Count)
		}
	case trace.OpUnlink:
		err = srv.Unlink(dir, op.Name)
	case trace.OpSetLayout:
		// SetLayout copies the extents into the inode record, so one
		// scratch slice serves every op.
		t.exts = t.exts[:0]
		for j := int64(0); j < op.Count; j++ {
			t.exts = append(t.exts, extent.Extent{Logical: 4 * j, Physical: op.Blk + 8*j, Count: 2})
		}
		err = srv.SetLayout(t.inos[op.Slot], t.exts)
	case trace.OpSync:
		if t.mount != nil {
			return t.mount.Sync()
		}
		err = srv.Sync()
	case trace.OpDropCaches:
		srv.FS().Store().DropCaches()
	case trace.OpCreateFile, trace.OpOpen:
		if op.Kind == trace.OpCreateFile {
			file, err = t.mount.Create(dir, op.Name, op.Count)
		} else {
			file, err = t.mount.Open(dir, op.Name)
		}
		if err == nil {
			t.cur, t.files = len(t.files), append(t.files, file)
		}
	case trace.OpUse:
		t.cur = int(op.Slot)
	case trace.OpWrite:
		err = file.Write(op.Stream, op.Blk, op.Count)
	case trace.OpRead:
		err = file.Read(op.Blk, op.Count)
	case trace.OpFsync:
		err = file.Fsync()
	case trace.OpClose:
		err, t.files[t.cur], t.cur = file.Close(), nil, -1
	case trace.OpDelete:
		err = t.mount.Delete(dir, op.Name)
	case trace.OpDeleteIfPresent:
		if err = t.mount.Delete(dir, op.Name); errors.Is(err, mdfs.ErrNotExist) {
			err = nil
		}
	}
	return err
}

// perSec is a throughput: n ops in ns of simulated time, 0 when no time
// passed.
func perSec(n int64, ns sim.Ns) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(n) / sim.Seconds(ns)
}

// applyPhases applies ops in the segments that cuts end, calling read
// after each: the points at which a driver reads its counters.
func applyPhases(t *Target, ops []trace.Op, cuts []int, read func(phase int)) error {
	prev := 0
	for i, cut := range cuts {
		if err := Apply(t, ops[prev:cut]); err != nil {
			return err
		}
		read(i)
		prev = cut
	}
	return nil
}

// Phases is what RunPhases measured of a two-phase data run.
type Phases struct {
	WriteNs, ReadNs sim.Ns     // each phase's data-device busy time
	Extents         int        // the current file's extent count, 0 with none current
	Stats           disk.Stats // the data disks' counters from the read phase on
}

// RunPhases applies a two-phase data run to a mount target and measures
// it. The write phase, ops[:cut], is flushed and timed; the data counters
// are zeroed, and the read phase, ops[cut:end], is flushed and timed; the
// ops past end, the closes, run once the counters are read. The current
// file's extents are counted after the write phase, or with extentsLast
// after the read phase. An empty read phase is skipped, the counters left
// as the write phase left them.
func RunPhases(t *Target, ops []trace.Op, cut, end int, extentsLast bool) (Phases, error) {
	var p Phases
	fs := t.mount
	count := func() (err error) {
		if f := t.File(); f != nil {
			p.Extents, err = fs.TotalExtents(f)
		}
		return err
	}
	if err := Apply(t, ops[:cut]); err != nil {
		return p, err
	}
	fs.Flush()
	p.WriteNs = fs.DataBusyMax()
	if !extentsLast {
		if err := count(); err != nil {
			return p, err
		}
	}
	if cut < end {
		fs.ResetDataStats()
		if err := Apply(t, ops[cut:end]); err != nil {
			return p, err
		}
		fs.Flush()
		p.ReadNs = fs.DataBusyMax()
	}
	p.Stats = fs.DataStats()
	if extentsLast {
		if err := count(); err != nil {
			return p, err
		}
	}
	return p, Apply(t, ops[end:])
}
