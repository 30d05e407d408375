package main

import (
	"math"
	"sort"
)

// rng is the benchmark's own generator (splitmix64), so that the inputs a
// seed produces do not depend on any code of the program under test.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// small n used here and does not matter for arrival orders.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm fills p with a seeded permutation of 0..len(p)-1.
func (r *rng) perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// interleave models clients that each issue a fixed sequence of requests
// and run at uneven speeds: queue q holds counts[q] requests, and at every
// step one unfinished queue, picked by the seed, issues its next one through
// emit(q, i). Lockstep round-robin would replay one global order on every
// phase and let the device queue re-merge what skew never would.
func (r *rng) interleave(counts []int, emit func(q, i int)) {
	next := make([]int, len(counts))
	var live []int
	for q, n := range counts {
		if n > 0 {
			live = append(live, q)
		}
	}
	for len(live) > 0 {
		k := r.intn(len(live))
		q := live[k]
		emit(q, next[q])
		next[q]++
		if next[q] == counts[q] {
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// scaled returns n scaled down for tests, never below min. At scale 1 it is
// n exactly: the seed and the scale never change op counts on their own.
func scaled(n int64, scale float64, min int64) int64 {
	v := int64(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// hasher is FNV-1a over 64-bit words, for the op-list fingerprint.
type hasher struct{ sum uint64 }

func newHasher() *hasher { return &hasher{sum: 14695981039346656037} }

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum = (h.sum ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.sum = (h.sum ^ uint64(s[i])) * 1099511628211
	}
	h.u64(uint64(len(s)))
}

// median returns the median of vs (0 for none); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), which
// is what the benchmark contract measures spread with. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	data := append([]float64(nil), vs...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
