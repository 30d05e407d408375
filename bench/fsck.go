package main

import (
	"bytes"
	"fmt"
	"strings"

	"redbud/internal/mdfs"
	"redbud/internal/telemetry"
)

const (
	fsckDirs  = 512
	fsckFiles = 1000 // per directory: 512,000 files in the image
)

// fsckWorkload is fsck_aged: set-up builds an aged embedded-layout image
// and keeps its bytes; an iteration loads the image (journal replay,
// remount, allocator rebuild) and checks it serially, which is what
// `miffsck check` costs a user.
type fsckWorkload struct {
	build *metaWorkload // the op list that produced the image
	image []byte
	// want is the report of the verifying iteration: every later one must
	// reproduce it byte for byte.
	want string
}

func (w *fsckWorkload) opsPerIter() int64 { return 2 }
func (w *fsckWorkload) opHash() uint64    { return w.build.opHash() }

// newFsckAged generates the image's op list from the seed and applies it.
// corrupt links a directory cycle into the finished image: the negative
// test's way of making the clean-report check fail.
func newFsckAged(seed uint64, scale float64, corrupt bool) (*fsckWorkload, error) {
	dirs := int(scaled(fsckDirs, scale, 4))
	b := &metaWorkload{}
	g := &metaGen{w: b, rng: newRNG(seed)}
	g.arm(metaArm{label: "image", layout: mdfs.LayoutEmbedded, dirs: dirs})
	g.fill(int(scaled(fsckFiles, scale, 30)))
	g.churn(6)
	g.endArm()

	var fs *mdfs.FS
	it := &iter{}
	b.run(it, spMdfsNew, nil, func(a metaArm) (metaTarget, *mdfs.FS, *telemetry.Tracer, error) {
		var err error
		fs, err = mdfs.New(a.config().FS)
		return fs, fs, nil, err
	})
	if it.failed > 0 || it.bad > 0 {
		return nil, fmt.Errorf("fsck_aged: image build failed: %v", it.problems)
	}
	if corrupt {
		if err := fs.InjectCorruption("cycle"); err != nil {
			return nil, fmt.Errorf("fsck_aged: %w", err)
		}
	}
	// An inode record is 256 bytes; sizing the buffer first saves the
	// copies of growing into a 130 MiB image.
	var buf bytes.Buffer
	buf.Grow(len(b.names)*320 + 32<<20)
	if err := fs.SaveImage(&buf); err != nil {
		return nil, fmt.Errorf("fsck_aged: save image: %w", err)
	}
	return &fsckWorkload{build: b, image: buf.Bytes()}, nil
}

// reportText renders a report completely, for the byte-identity check.
func reportText(r *mdfs.FsckReport) string {
	return fmt.Sprintf("dirs=%d files=%d blocks=%d\nproblems:\n%s\nadvisories:\n%s\n",
		r.Dirs, r.Files, r.ReachableBlocks, strings.Join(r.Problems, "\n"), strings.Join(r.Advisories, "\n"))
}

func (w *fsckWorkload) iterate(it *iter) {
	inst := it.instance()
	defer it.endInstance(inst)
	sp := it.begin(spMdfsLoadImage)
	fs, err := mdfs.LoadImage(bytes.NewReader(w.image))
	it.end(sp, err)
	if err != nil {
		return
	}
	reg, tr := it.observers()
	sp = it.begin(spFsckWorkers1)
	rep := fs.FsckWith(mdfs.FsckOptions{Workers: 1, Metrics: reg, Trace: tr})
	it.end(sp, nil)
	it.observed(tr)

	st := fs.Store().Disk().Stats()
	it.sim.add(simCounts{Ns: st.BusyNs, Positionings: st.Positionings, DiskRequests: st.Requests, Extents: rep.ReachableBlocks})
	it.check(rep.Clean(), "fsck: %d problems, first: %v", len(rep.Problems), first(rep.Problems))
	text := reportText(rep)
	if it.verify {
		w.want = text
	}
	it.check(text == w.want, "fsck: report differs from the first iteration's")
}

func first(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[0]
}
