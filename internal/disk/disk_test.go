package disk

import (
	"testing"

	"redbud/internal/sim"
)

func testDisk(t *testing.T) *Disk {
	t.Helper()
	return New(DefaultConfig(), 1<<20) // 4 GiB at 4 KiB blocks
}

func TestSequentialAccessPaysTransferOnly(t *testing.T) {
	d := testDisk(t)
	first := d.Access(500_000, 256, true) // cold: long seek from head 0
	second := d.Access(500_256, 256, true)
	if second >= first {
		t.Fatalf("sequential continuation (%d ns) should be cheaper than cold access (%d ns)", second, first)
	}
	st := d.Stats()
	if st.SeqAccesses != 1 {
		t.Fatalf("SeqAccesses = %d, want 1", st.SeqAccesses)
	}
	if st.Positionings != 1 {
		t.Fatalf("Positionings = %d, want 1", st.Positionings)
	}
}

func TestRandomAccessPaysPositioning(t *testing.T) {
	d := testDisk(t)
	d.Access(0, 1, true)
	far := d.Access(500_000, 1, true)
	near := d.Access(500_001+100, 1, true) // within NearThreshold of head
	if far <= near {
		t.Fatalf("far access (%d ns) should cost more than near access (%d ns)", far, near)
	}
	st := d.Stats()
	if st.Positionings != 1 {
		t.Fatalf("Positionings = %d, want 1", st.Positionings)
	}
	if st.NearSwitches != 1 {
		t.Fatalf("NearSwitches = %d, want 1", st.NearSwitches)
	}
}

func TestSeekCostMonotoneInDistance(t *testing.T) {
	d := testDisk(t)
	d.Access(0, 1, true)
	costShort := d.Access(10_000, 1, true)
	d2 := testDisk(t)
	d2.Access(0, 1, true)
	costLong := d2.Access(900_000, 1, true)
	if costLong <= costShort {
		t.Fatalf("long seek (%d ns) should cost more than short seek (%d ns)", costLong, costShort)
	}
}

func TestSequentialBandwidthCalibration(t *testing.T) {
	d := testDisk(t)
	// Stream 512 MiB sequentially in 1 MiB requests.
	const reqBlocks = 256
	var total sim.Ns
	for b := int64(0); b < 512*256; b += reqBlocks {
		total += d.Access(b, reqBlocks, false)
	}
	bytes := int64(512) * 1024 * 1024
	got := sim.MBps(bytes, total)
	if got < 150 || got > 175 {
		t.Fatalf("sequential bandwidth = %.1f MB/s, want ~170 (150..175)", got)
	}
}

func TestFragmentedReadSlowerThanContiguous(t *testing.T) {
	// The premise of the whole paper: the same bytes laid out contiguously
	// read faster than interleaved among distant regions.
	contig := testDisk(t)
	var contigNs sim.Ns
	for b := int64(0); b < 4096; b += 16 {
		contigNs += contig.Access(b, 16, false)
	}

	frag := testDisk(t)
	var fragNs sim.Ns
	for i := int64(0); i < 256; i++ {
		// Alternate between two regions 2 GiB apart.
		base := (i % 2) * 524_288
		fragNs += frag.Access(base+i*16, 16, false)
	}
	if fragNs < 10*contigNs {
		t.Fatalf("fragmented read (%d ns) should be far slower than contiguous (%d ns)", fragNs, contigNs)
	}
}

func TestAccessBoundsChecked(t *testing.T) {
	d := New(DefaultConfig(), 100)
	for _, tc := range []struct{ start, count int64 }{
		{-1, 1}, {0, 0}, {0, -5}, {99, 2}, {100, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%d,%d) should panic", tc.start, tc.count)
				}
			}()
			d.Access(tc.start, tc.count, false)
		}()
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Positionings: 3, BlocksRead: 10, BusyNs: 100}
	b := Stats{Positionings: 1, BlocksRead: 4, BusyNs: 30}
	sum := a.Add(b)
	if sum.Positionings != 4 || sum.BlocksRead != 14 || sum.BusyNs != 130 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.BlockSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero BlockSize should be invalid")
	}
	bad = good
	bad.TransferMBps = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative TransferMBps should be invalid")
	}
}

func TestSeekTo(t *testing.T) {
	d := testDisk(t)
	d.Access(0, 8, true)
	cost := d.SeekTo(500_000)
	if cost == 0 {
		t.Fatal("long SeekTo should have non-zero cost")
	}
	if d.Head() != 500_000 {
		t.Fatalf("Head = %d, want 500000", d.Head())
	}
	// Access at head is now sequential.
	before := d.Stats().SeqAccesses
	d.Access(500_000, 4, false)
	if d.Stats().SeqAccesses != before+1 {
		t.Fatal("access at seeked head should be sequential")
	}
}
