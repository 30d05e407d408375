package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock should read 0")
	}
	if got := c.Advance(100); got != 100 {
		t.Fatalf("Advance = %d, want 100", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance should panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestMBps(t *testing.T) {
	if got := MBps(170e6, Second); got != 170 {
		t.Fatalf("MBps = %g, want 170", got)
	}
	if got := MBps(100, 0); got != 0 {
		t.Fatalf("MBps with zero duration = %g, want 0", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same sequence")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

// TestInt63nUnbiasedLargeN is the regression test for the modulo-bias bug:
// the old Uint64()%n implementation over-weighted low residues whenever n
// did not divide 2^64. For n = 3<<61 the residues below 1<<62 occur three
// times in [0, 2^64) and the rest only twice, so P(v < n/2) was 9/16 =
// 0.5625 instead of 0.5 — a ~12σ deviation at 10k samples, far outside the
// 0.03 tolerance here. Rejection sampling restores uniformity.
func TestInt63nUnbiasedLargeN(t *testing.T) {
	const n = int64(3) << 61
	r := NewRand(1234)
	below := 0
	const samples = 10000
	for i := 0; i < samples; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v < n/2 {
			below++
		}
	}
	frac := float64(below) / samples
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("Int63n(3<<61) biased: fraction below midpoint = %.4f, want ~0.5", frac)
	}
}

// TestInt63nUniformSmallN chi-square-checks the bucket counts for a small
// non-power-of-two n: all residues must be hit with near-equal frequency.
func TestInt63nUniformSmallN(t *testing.T) {
	const n = 10
	const samples = 100000
	r := NewRand(99)
	var counts [n]int
	for i := 0; i < samples; i++ {
		counts[r.Int63n(n)]++
	}
	// Chi-square with 9 degrees of freedom: p=0.001 critical value is
	// 27.9; a correct generator stays far below, a broken one explodes.
	expected := float64(samples) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Int63n(10) non-uniform: chi-square = %.1f (counts %v)", chi2, counts)
	}
}

// TestInt63nPowerOfTwoSequenceStable pins the power-of-two draw sequence:
// the rejection fix masks without rejecting when n is a power of two, so
// those sequences must match the pre-fix modulo sequence (Uint64()&(n-1)).
func TestInt63nPowerOfTwoSequenceStable(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		want := int64(b.Uint64() & 63)
		if got := a.Int63n(64); got != want {
			t.Fatalf("draw %d: Int63n(64) = %d, want masked-draw %d", i, got, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked generators should differ")
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRand(5)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
