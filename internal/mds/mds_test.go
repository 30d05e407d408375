package mds

import (
	"fmt"
	"testing"

	"redbud/internal/extent"
	"redbud/internal/mdfs"
	"redbud/internal/sim"
)

func newServer(t *testing.T, layout mdfs.Layout) *Server {
	t.Helper()
	cfg := DefaultConfig(layout)
	cfg.FS.Blocks = 1 << 17
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNamespaceOpsAndCounters(t *testing.T) {
	s := newServer(t, mdfs.LayoutEmbedded)
	d, err := s.Mkdir(s.Root(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	ino, err := s.Create(d, "f")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Lookup(d, "f"); err != nil || got != ino {
		t.Fatalf("Lookup = (%v,%v)", got, err)
	}
	if _, err := s.StatName(d, "f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Utime(ino); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlink(d, "f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rmdir(s.Root(), "dir"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RPCs != 7 {
		t.Fatalf("RPCs = %d, want 7", st.RPCs)
	}
	if st.CPUNs == 0 {
		t.Fatal("RPCs should accumulate CPU time")
	}
}

func TestOpenGetLayoutAggregation(t *testing.T) {
	s := newServer(t, mdfs.LayoutEmbedded)
	ino, err := s.Create(s.Root(), "data")
	if err != nil {
		t.Fatal(err)
	}
	exts := []extent.Extent{
		{Logical: 0, Physical: 100, Count: 8},
		{Logical: 8, Physical: 300, Count: 8},
	}
	if err := s.SetLayout(ino, exts); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().RPCs
	got, layout, err := s.OpenGetLayout(s.Root(), "data")
	if err != nil {
		t.Fatal(err)
	}
	if got != ino {
		t.Fatalf("ino = %v, want %v", got, ino)
	}
	if len(layout) != 2 || layout[0] != exts[0] || layout[1] != exts[1] {
		t.Fatalf("layout = %v", layout)
	}
	// The aggregation is a single RPC — that is its point.
	if s.Stats().RPCs != before+1 {
		t.Fatalf("OpenGetLayout should cost one RPC, got %d", s.Stats().RPCs-before)
	}
}

func TestReaddirPlusSingleRPC(t *testing.T) {
	s := newServer(t, mdfs.LayoutEmbedded)
	d, _ := s.Mkdir(s.Root(), "d")
	for i := 0; i < 20; i++ {
		if _, err := s.Create(d, fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().RPCs
	recs, err := s.ReaddirPlus(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("records = %d, want 20", len(recs))
	}
	if s.Stats().RPCs != before+1 {
		t.Fatal("readdirplus should be one MDS request")
	}
}

func TestCPUUtilizationModel(t *testing.T) {
	s := newServer(t, mdfs.LayoutNormal)
	ino, _ := s.Create(s.Root(), "f")
	var exts []extent.Extent
	for i := 0; i < 50; i++ {
		exts = append(exts, extent.Extent{Logical: int64(i) * 2, Physical: int64(1000 + i*4), Count: 2})
	}
	if err := s.SetLayout(ino, exts); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ExtentOps < 50 {
		t.Fatalf("ExtentOps = %d, want >= 50", st.ExtentOps)
	}
	u := s.CPUUtilization(10 * sim.Millisecond)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %g, want (0,1]", u)
	}
	if s.CPUUtilization(0) != 0 {
		t.Fatal("zero elapsed must not divide")
	}
	s.ResetStats()
	if s.Stats().RPCs != 0 {
		t.Fatal("ResetStats should zero counters")
	}
}

func TestRenameThroughServer(t *testing.T) {
	for _, layout := range []mdfs.Layout{mdfs.LayoutNormal, mdfs.LayoutEmbedded} {
		s := newServer(t, layout)
		d1, _ := s.Mkdir(s.Root(), "a")
		d2, _ := s.Mkdir(s.Root(), "b")
		ino, _ := s.Create(d1, "f")
		newIno, err := s.Rename(d1, "f", d2, "g")
		if err != nil {
			t.Fatal(err)
		}
		if layout == mdfs.LayoutNormal && newIno != ino {
			t.Fatal("normal rename must keep the inode number")
		}
		if layout == mdfs.LayoutEmbedded && newIno == ino {
			t.Fatal("embedded rename must change the inode number")
		}
		if _, err := s.FS().Stat(newIno); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMoreExtentsMoreCPU(t *testing.T) {
	// Table I's relation: the more segments the MDS operates on, the
	// more CPU it burns.
	cpu := func(extents int) sim.Ns {
		s := newServer(t, mdfs.LayoutNormal)
		ino, _ := s.Create(s.Root(), "f")
		var exts []extent.Extent
		for i := 0; i < extents; i++ {
			exts = append(exts, extent.Extent{Logical: int64(i) * 2, Physical: int64(1000 + i*4), Count: 2})
		}
		if err := s.SetLayout(ino, exts); err != nil {
			t.Fatal(err)
		}
		return s.Stats().CPUNs
	}
	if cpu(200) <= cpu(10) {
		t.Fatal("more extents should cost more MDS CPU")
	}
}
