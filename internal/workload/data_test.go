package workload

import (
	"math"
	"testing"

	"redbud/internal/pfs"
)

// fig6Config builds the 5-disk stripe of the micro-benchmark experiments.
func fig6Config(policy pfs.PolicyKind) pfs.Config {
	cfg := pfs.MiF(5).WithPolicy(policy)
	cfg.ReservationWindow = 2048
	return cfg
}

func TestMicroOnDemandBeatsReservation(t *testing.T) {
	mc := DefaultMicroConfig(8) // 32 streams
	res, err := RunMicro(fig6Config(pfs.PolicyReservation), mc)
	if err != nil {
		t.Fatal(err)
	}
	od, err := RunMicro(fig6Config(pfs.PolicyOnDemand), mc)
	if err != nil {
		t.Fatal(err)
	}
	if od.ReadMBps <= res.ReadMBps {
		t.Fatalf("on-demand read %.1f MB/s should beat reservation %.1f MB/s", od.ReadMBps, res.ReadMBps)
	}
	if od.Extents >= res.Extents {
		t.Fatalf("on-demand extents %d should be below reservation %d", od.Extents, res.Extents)
	}
	t.Logf("reservation: %.1f MB/s read, %d extents; on-demand: %.1f MB/s read, %d extents",
		res.ReadMBps, res.Extents, od.ReadMBps, od.Extents)
}

func TestMicroStaticIsUpperBound(t *testing.T) {
	mc := DefaultMicroConfig(8)
	st, err := RunMicro(fig6Config(pfs.PolicyStatic), mc)
	if err != nil {
		t.Fatal(err)
	}
	od, err := RunMicro(fig6Config(pfs.PolicyOnDemand), mc)
	if err != nil {
		t.Fatal(err)
	}
	if od.ReadMBps > st.ReadMBps*101/100 {
		t.Fatalf("on-demand read %.1f MB/s should not beat static %.1f MB/s", od.ReadMBps, st.ReadMBps)
	}
	if st.Extents > 8 {
		t.Fatalf("static layout should be nearly contiguous, got %d extents", st.Extents)
	}
}

func TestMicroGapAcrossStreamCounts(t *testing.T) {
	// Figure 6(a): the on-demand advantage holds at every stream count
	// (17%/27%/48% at 32/48/64 procs in the paper). The exact monotone
	// growth with stream count is a second-order property our
	// concurrency model reproduces only partially, so the assertion is
	// a substantial, non-collapsing gain at each point.
	gain := func(clients int) float64 {
		mc := DefaultMicroConfig(clients)
		res, err := RunMicro(fig6Config(pfs.PolicyReservation), mc)
		if err != nil {
			t.Fatal(err)
		}
		od, err := RunMicro(fig6Config(pfs.PolicyOnDemand), mc)
		if err != nil {
			t.Fatal(err)
		}
		return od.ReadMBps / res.ReadMBps
	}
	g8 := gain(8)   // 32 streams
	g12 := gain(12) // 48 streams
	g16 := gain(16) // 64 streams
	for _, g := range []float64{g8, g12, g16} {
		if g < 1.15 {
			t.Fatalf("gains %.2f/%.2f/%.2f: every point should exceed 1.15", g8, g12, g16)
		}
	}
	if g16 < g8*0.7 {
		t.Fatalf("gain collapsed with streams: 32->%.2f, 64->%.2f", g8, g16)
	}
	t.Logf("gain at 32/48/64 streams: %.2fx / %.2fx / %.2fx", g8, g12, g16)
}

func TestIORShapes(t *testing.T) {
	ic := DefaultIORConfig(32)
	ic.Interference = true // Table I environment: a concurrent side file
	res, err := RunIOR(fig7Config(pfs.PolicyReservation), ic)
	if err != nil {
		t.Fatal(err)
	}
	od, err := RunIOR(fig7Config(pfs.PolicyOnDemand), ic)
	if err != nil {
		t.Fatal(err)
	}
	van, err := RunIOR(fig7Config(pfs.PolicyVanilla), ic)
	if err != nil {
		t.Fatal(err)
	}
	if od.Throughput <= res.Throughput {
		t.Fatalf("on-demand %.1f MB/s should beat reservation %.1f MB/s", od.Throughput, res.Throughput)
	}
	// Table I ordering: vanilla >= reservation >> on-demand extents.
	if van.Extents < res.Extents {
		t.Fatalf("vanilla extents %d should be >= reservation %d", van.Extents, res.Extents)
	}
	if od.Extents*4 > res.Extents {
		t.Fatalf("on-demand extents %d vs reservation %d: want >= 4x reduction", od.Extents, res.Extents)
	}
	if od.MDSCPU >= res.MDSCPU {
		t.Fatalf("on-demand MDS CPU %.2f%% should be below reservation %.2f%%", od.MDSCPU, res.MDSCPU)
	}
	t.Logf("IOR: vanilla %d ext, reservation %d ext (%.1f MB/s), on-demand %d ext (%.1f MB/s)",
		van.Extents, res.Extents, res.Throughput, od.Extents, od.Throughput)
}

func TestBTIOShapes(t *testing.T) {
	bc := DefaultBTIOConfig(64)
	res, err := RunBTIO(fig7Config(pfs.PolicyReservation), bc)
	if err != nil {
		t.Fatal(err)
	}
	od, err := RunBTIO(fig7Config(pfs.PolicyOnDemand), bc)
	if err != nil {
		t.Fatal(err)
	}
	if od.Throughput <= res.Throughput {
		t.Fatalf("on-demand %.1f MB/s should beat reservation %.1f MB/s", od.Throughput, res.Throughput)
	}
	gain := od.Throughput / res.Throughput
	if gain < 1.05 {
		t.Fatalf("BTIO gain %.2f too small", gain)
	}
	t.Logf("BTIO: reservation %.1f MB/s (%d ext), on-demand %.1f MB/s (%d ext), gain %.2fx",
		res.Throughput, res.Extents, od.Throughput, od.Extents, gain)
}

func TestCollectiveIOBeatsNonCollective(t *testing.T) {
	bc := DefaultBTIOConfig(64)
	non, err := RunBTIO(fig7Config(pfs.PolicyReservation), bc)
	if err != nil {
		t.Fatal(err)
	}
	bc.Collective = true
	col, err := RunBTIO(fig7Config(pfs.PolicyReservation), bc)
	if err != nil {
		t.Fatal(err)
	}
	if col.Throughput <= non.Throughput {
		t.Fatalf("collective %.1f MB/s should beat non-collective %.1f MB/s", col.Throughput, non.Throughput)
	}
	// And collective shrinks the policy gap.
	bcOD := bc
	odCol, err := RunBTIO(fig7Config(pfs.PolicyOnDemand), bcOD)
	if err != nil {
		t.Fatal(err)
	}
	gapCollective := odCol.Throughput / col.Throughput
	gapNon := 0.0
	od, err := RunBTIO(fig7Config(pfs.PolicyOnDemand), DefaultBTIOConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	gapNon = od.Throughput / non.Throughput
	if gapCollective > gapNon {
		t.Fatalf("collective I/O should shrink the policy gap: %.2f vs %.2f", gapCollective, gapNon)
	}
}

// fig7Config builds the 8-disk stripe of the macro-benchmark experiments.
func fig7Config(policy pfs.PolicyKind) pfs.Config {
	cfg := pfs.MiF(8).WithPolicy(policy)
	cfg.ReservationWindow = 2048
	return cfg
}

// TestMixedStreamDeterministicAndBounded: the mixed-stream run has no seed,
// so two runs must agree exactly; on-demand preallocation must not
// fragment the sequential region more than no preallocation does, and the
// throughput is finite (sim.MBps reports 0, not +Inf, over zero time).
func TestMixedStreamDeterministicAndBounded(t *testing.T) {
	a, err := RunMixedStream(fig6Config(pfs.PolicyOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMixedStream(fig6Config(pfs.PolicyOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
	vanilla, err := RunMixedStream(fig6Config(pfs.PolicyVanilla))
	if err != nil {
		t.Fatal(err)
	}
	if a.Extents > vanilla.Extents {
		t.Fatalf("on-demand extents %d exceed the vanilla arm's %d", a.Extents, vanilla.Extents)
	}
	if a.ReadMBps <= 0 || math.IsInf(a.ReadMBps, 0) {
		t.Fatalf("read throughput %v", a.ReadMBps)
	}
}
