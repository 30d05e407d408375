package netsim

import (
	"testing"

	"redbud/internal/sim"
)

func TestTransferCost(t *testing.T) {
	l := NewLink(Config{LatencyNs: 100 * sim.Microsecond, BytesPerSec: 100e6})
	// 1 MB at 100 MB/s = 10 ms, plus 0.1 ms latency.
	got := l.Transfer(1e6)
	want := sim.Ns(10.1 * float64(sim.Millisecond))
	if got < want-sim.Microsecond || got > want+sim.Microsecond {
		t.Fatalf("Transfer = %d ns, want ~%d", got, want)
	}
	st := l.Stats()
	if st.Messages != 1 || st.Bytes != 1e6 || st.BusyNs != got {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroPayloadCostsLatency(t *testing.T) {
	l := NewLink(GbE())
	if got := l.Transfer(0); got != GbE().LatencyNs {
		t.Fatalf("empty message = %d ns, want %d", got, GbE().LatencyNs)
	}
	if got := l.Transfer(-5); got != GbE().LatencyNs {
		t.Fatalf("negative payload should clamp to zero")
	}
}

func TestFabricLinksAreIsolated(t *testing.T) {
	// Each client owns a point-to-point link: traffic on one link must
	// not appear in any other's counters.
	f := NewFabric(FC400(), 4)
	f.Link(2).Transfer(8e6)
	f.Link(2).Transfer(1e6)
	for i := 0; i < 4; i++ {
		st := f.Link(i).Stats()
		if i == 2 {
			if st.Messages != 2 || st.Bytes != 9e6 {
				t.Fatalf("loaded link stats = %+v", st)
			}
			continue
		}
		if st != (Stats{}) {
			t.Fatalf("idle link %d accumulated %+v", i, st)
		}
	}
	if f.MaxBusy() != f.Link(2).Stats().BusyNs {
		t.Fatal("fabric max busy must come from the only loaded link")
	}
}

func TestFabricParallelism(t *testing.T) {
	f := NewFabric(FC400(), 4)
	for i := 0; i < 4; i++ {
		f.Link(i).Transfer(4e6)
	}
	total := f.TotalStats()
	if total.Messages != 4 {
		t.Fatalf("messages = %d", total.Messages)
	}
	if f.MaxBusy()*4 != total.BusyNs {
		t.Fatalf("equal parallel loads: max %d × 4 should equal sum %d", f.MaxBusy(), total.BusyNs)
	}
	f.Reset()
	if f.TotalStats().Messages != 0 {
		t.Fatal("Reset should zero counters")
	}
	// Link indices wrap.
	if f.Link(7) != f.Link(3) {
		t.Fatal("link indexing should wrap")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	for _, cfg := range []Config{{BytesPerSec: 0}, {BytesPerSec: -1}, {BytesPerSec: 1, LatencyNs: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%+v) should panic", cfg)
				}
			}()
			NewLink(cfg)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("empty fabric should panic")
		}
	}()
	NewFabric(GbE(), 0)
}

func TestProfilesSane(t *testing.T) {
	if GbE().BytesPerSec >= FC400().BytesPerSec {
		t.Fatal("FC should be faster than GbE")
	}
	// A 40 MB collective transfer over FC: ~100 ms.
	l := NewLink(FC400())
	got := l.Transfer(40e6)
	if got < 90*sim.Millisecond || got > 110*sim.Millisecond {
		t.Fatalf("40 MB over FC400 = %v ns, want ~100 ms", got)
	}
}
