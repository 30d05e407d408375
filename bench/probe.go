package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small guest on a shared machine, and
// its speed drifts: over minutes, whole runs of one binary on one seed are
// 10-20 % slower or faster, with CPU time equal to wall time and no steal
// time reported. Both arithmetic and, more so, the memory system drift. No
// statistic taken within a run and no run length that fits the time cap
// averages that out.
//
// So the harness measures the host while it measures the program. The probe
// is a fixed piece of work that belongs to the benchmark, not the program:
// dependent loads through a 16 MiB cycle and a shift-xor loop. It allocates
// nothing, so the state the program left the heap in cannot reach it, nor its
// garbage the program. It runs before every timed iteration and after the
// last, each time right after a collection and outside the timed regions, and
// the run's two host-time metrics are reported at reference speed: the
// measured time multiplied by probeRefMs over the run's median probe time.
// README.md has the measurements behind this.

const (
	probeWords  = 4 << 20 // uint32 entries of the cycle: 16 MiB, beyond any private cache
	probeLoads  = 200000
	probeRounds = 6000000

	// probeRefMs is the probe's time on the reference host (2 vCPU Xeon
	// 2.1 GHz, Firecracker guest) in its better hours: run medians were
	// 33-38 ms, 41 in the slowest run. It only fixes the scale.
	probeRefMs = 34.0
)

// probe is the host-speed probe. Its array lives outside the Go heap, so
// that it neither moves the collector's pacing nor is scanned, and its
// resident size is known exactly (rssMB subtracts it).
type probe struct {
	mem   []byte
	cycle []uint32
}

var probeSink uint64

func newProbe() (*probe, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &probe{mem: mem, cycle: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeWords)}
	// One cycle through every entry (Sattolo's shuffle), so that each load
	// depends on the one before and none is predictable.
	c := p.cycle
	for i := range c {
		c[i] = uint32(i)
	}
	r := newRNG(0x70726f6265)
	for i := len(c) - 1; i > 0; i-- {
		j := r.intn(i)
		c[i], c[j] = c[j], c[i]
	}
	return p, nil
}

func (p *probe) close() { syscall.Munmap(p.mem) }

// residentMB is the probe's share of the process's resident set, none
// where no probe was built.
func (p *probe) residentMB() float64 {
	if p == nil {
		return 0
	}
	return float64(len(p.mem)) / (1 << 20)
}

// run does the probe's fixed work once and returns how long it took.
func (p *probe) run() time.Duration {
	t0 := time.Now()
	x := uint32(0)
	for i := 0; i < probeLoads; i++ {
		x = p.cycle[x]
	}
	z := uint64(x) | 1
	for i := 0; i < probeRounds; i++ {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
	}
	d := time.Since(t0)
	probeSink += z
	return d
}
