package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner is a workload whose inputs have been generated: it can say how
// many driver calls one iteration makes, fingerprint its op list, and apply
// the list to a fresh instance.
type runner interface {
	opsPerIter() int64
	opHash() uint64
	iterate(it *iter)
}

// options selects one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // timed iterations continue until this much is measured
	minIters int     // and at least this many have run: minTimedIters, but for tests
	trace    bool
	scale    float64
	traceOut string
	// breakCheck plants a deliberately wrong expectation, for the negative
	// test of the checker: "readback" or "cycle".
	breakCheck string
}

// buildWorkload generates the named workload's inputs from the seed.
func buildWorkload(o options) (runner, error) {
	var (
		w   runner
		err error
	)
	switch o.workload {
	case "data_shared":
		w = newDataShared(o.seed, o.scale, false)
	case "data_observed":
		w = newDataShared(o.seed, o.scale, true)
	case "data_resilient":
		w = newDataResilient(o.seed, o.scale)
	case "meta_bigdir":
		w = newMetaBigdir(o.seed, o.scale)
	case "meta_aged":
		w = newMetaAged(o.seed, o.scale)
	case "fsck_aged":
		w, err = newFsckAged(o.seed, o.scale, o.breakCheck == "cycle")
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	switch o.breakCheck {
	case "":
	case "readback":
		d, ok := w.(*dataWorkload)
		if !ok {
			return nil, fmt.Errorf("-break readback applies to the data workloads")
		}
		d.expectUnwritten = true
	case "cycle":
		if o.workload != "fsck_aged" {
			return nil, fmt.Errorf("-break cycle applies to fsck_aged")
		}
	default:
		return nil, fmt.Errorf("unknown -break %q", o.breakCheck)
	}
	return w, nil
}

// minTimedIters is the least number of timed iterations of a run. It is a
// constant of the benchmark, not a flag: two runs of "the benchmark" must be
// the same benchmark.
const minTimedIters = 9

// sample is what the harness measures around one iteration.
type sample struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
	rssMB     float64 // resident set when the iteration ended
}

// result is the outcome of one run.
type result struct {
	opts       options
	opsPerIter int64
	opHash     uint64
	iterations int
	sim        simCounts
	warmup     time.Duration
	setup      time.Duration
	hostSpeed  float64   // probeRefMs over the run's median probe time: below 1 on a slow host
	samples    []sample  // the timed (untraced pass) or plain (traced pass) iterations
	probesMs   []float64 // the host-speed probe: before every timed iteration and after the last
	attempted  int64     // driver calls and checks, all iterations
	failed     int64
	problems   []string
	metrics    map[string]float64
	spanFile   string
}

// harness runs one workload in this process.
type harness struct {
	o   options
	w   runner
	res *result
	ref simCounts // the warm-up iteration's counts: every iteration must match
	// probe measures the host's speed beside the timed iterations (probe.go);
	// the traced pass, whose host times are not gated, runs without it.
	probe *probe
	m0    runtime.MemStats
	m1    runtime.MemStats
}

// cpuTime returns the process's user and system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssMB returns the process's current resident set from /proc/self/statm,
// or the peak where that file cannot be read. The caller subtracts what the
// harness itself keeps resident.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(raw)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	return peakRSSMB()
}

// count folds the calls and checks of one finished pass over an op list
// into the run.
func (h *harness) count(it *iter, what string) {
	r := h.res
	r.attempted += it.calls + it.checks
	r.failed += it.failed + it.bad
	for _, p := range it.problems {
		r.problem("%s: %s", what, p)
	}
}

// account folds one finished iteration of the workload into the run, with
// the assertion that its simulated counts equal the reference.
func (h *harness) account(it *iter, what string) {
	h.count(it, what)
	h.res.attempted++
	if it.sim != h.ref {
		h.res.failed++
		h.res.problem("%s: simulated counts %+v differ from the warm-up's %+v", what, it.sim, h.ref)
	}
}

func (r *result) problem(format string, args ...interface{}) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// wallsMs returns the wall times of the measured iterations.
func (h *harness) wallsMs() []float64 {
	walls := make([]float64, len(h.res.samples))
	for i, s := range h.res.samples {
		walls[i] = float64(s.wall) / 1e6
	}
	return walls
}

// quiesce collects, so that what follows starts from a clean heap with no
// collector work pending, and then probes the host's speed (untraced pass):
// at one P the probe must not share its time with a collection the program's
// garbage set off.
func (h *harness) quiesce() {
	runtime.GC()
	if h.probe != nil {
		h.res.probesMs = append(h.res.probesMs, float64(h.probe.run())/1e6)
	}
}

// measure runs one iteration between a collection and two MemStats reads,
// all outside the timed region.
func (h *harness) measure(it *iter) sample {
	h.quiesce()
	runtime.ReadMemStats(&h.m0)
	c0 := cpuTime()
	t0 := time.Now()
	h.w.iterate(it)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&h.m1)
	return sample{
		wall:      wall,
		cpu:       cpu,
		mallocs:   h.m1.Mallocs - h.m0.Mallocs,
		bytes:     h.m1.TotalAlloc - h.m0.TotalAlloc,
		gcCycles:  h.m1.NumGC - h.m0.NumGC,
		gcPauseNs: h.m1.PauseTotalNs - h.m0.PauseTotalNs,
		rssMB:     rssMB() - h.probe.residentMB(),
	}
}

// extraWarmups lengthens a set-up too short to repeat from run to run:
// data_shared's took 0.4 s and spread 29-39 % in the A/A check when the
// process started right after a large one exited.
var extraWarmups = map[string]int{"data_shared": 2}

// run executes one run: set-up (generate the inputs, build the base state,
// one verifying warm-up iteration), then the timed iterations, or with
// o.trace the traced pass.
func run(o options, start time.Time) (*result, error) {
	// One P: the simulator's default data path is then the serial one and
	// the numbers measure the program, not the scheduler (see README.md).
	runtime.GOMAXPROCS(1)
	w, err := buildWorkload(o)
	if err != nil {
		return nil, err
	}
	h := &harness{o: o, w: w, res: &result{opts: o, opsPerIter: w.opsPerIter(), opHash: w.opHash()}}
	r := h.res
	if !o.trace {
		if h.probe, err = newProbe(); err != nil {
			return nil, fmt.Errorf("host-speed probe: %w", err)
		}
		defer h.probe.close()
	}

	warm := &iter{verify: true}
	t0 := time.Now()
	w.iterate(warm)
	r.warmup = time.Since(t0)
	h.ref = warm.sim
	r.sim = warm.sim
	h.account(warm, "warm-up")
	for n := 0; n < extraWarmups[o.workload]; n++ {
		it := &iter{}
		w.iterate(it)
		h.account(it, "warm-up")
	}
	r.setup = time.Since(start)

	if o.trace {
		err = h.tracedPass()
	} else {
		h.timedPass()
	}
	return r, err
}

// timedPass runs the timed iterations and derives the end-to-end metrics.
func (h *harness) timedPass() {
	r := h.res
	var measured time.Duration
	for n := 0; n < h.o.minIters || measured.Seconds() < h.o.seconds; n++ {
		it := &iter{}
		s := h.measure(it)
		h.account(it, fmt.Sprintf("iteration %d", n+1))
		r.samples = append(r.samples, s)
		measured += s.wall
	}
	h.quiesce()
	r.iterations = len(r.samples)
	// The run's host times at reference speed: see probe.go.
	r.hostSpeed = probeRefMs / median(append([]float64(nil), r.probesMs...))

	var rss []float64
	var mallocs, bytes uint64
	for _, s := range r.samples {
		rss = append(rss, s.rssMB)
		mallocs += s.mallocs
		bytes += s.bytes
	}
	ops := float64(r.opsPerIter) * float64(r.iterations)
	r.metrics = map[string]float64{
		"setup_s":            r.setup.Seconds() * r.hostSpeed,
		"iter_wall_ms":       median(h.wallsMs()) * r.hostSpeed,
		"allocs_per_op":      float64(mallocs) / ops,
		"alloc_bytes_per_op": float64(bytes) / ops,
		"iter_rss_mb":        median(rss),
		"sim_s":              float64(r.sim.Ns) / 1e9,
		"sim_positionings":   float64(r.sim.Positionings),
		"sim_disk_requests":  float64(r.sim.DiskRequests),
		"sim_extents":        float64(r.sim.Extents),
		"ok_op_share":        1 - float64(r.failed)/float64(r.attempted),
	}
}

// Sizes of the traced pass: enough plain iterations for quartiles, and a
// quarter of the time budget under the profiler, which takes 100 samples a
// second.
const (
	plainIters   = 3
	profileShare = 0.25
)

// tracedPass runs three kinds of iteration after the set-up: plain ones
// (the reference for the overhead ratio), plain ones under the CPU profiler
// (where host time goes, by package), and one traced (a span around every
// driver call, the program's registry and tracers attached). The layer
// replays follow.
func (h *harness) tracedPass() error {
	r := h.res
	for n := 0; n < plainIters; n++ {
		it := &iter{}
		r.samples = append(r.samples, h.measure(it))
		h.account(it, "plain iteration")
	}

	// One profile over back-to-back iterations: stopping the profiler
	// waits for its 100 ms reader, too long to pay per iteration.
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var profiled []*iter
	for t0 := time.Now(); len(profiled) == 0 || time.Since(t0).Seconds() < profileShare*h.o.seconds; {
		it := &iter{}
		h.w.iterate(it)
		profiled = append(profiled, it)
	}
	pprof.StopCPUProfile()
	for _, it := range profiled {
		h.account(it, "profiled iteration")
	}
	cpu := make(map[string]int64)
	cpuTotal, err := foldProfile(prof.Bytes(), cpu)
	if err != nil {
		return err
	}

	runtime.GC()
	rec := newRecorder()
	obs := newObserver()
	it := &iter{rec: rec, obs: obs}
	t0 := time.Now()
	root := rec.push(spIteration)
	h.w.iterate(it)
	rec.pop(root)
	traced := float64(time.Since(t0)) / 1e6
	h.account(it, "traced iteration")
	var totals spanTotals
	totals.add(rec.spans)
	r.iterations = 1

	// A metric is 0 on a workload that does not run its layer.
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	h.spanMetrics(m, &totals)
	h.counterMetrics(m, obs)
	for _, b := range cpuBuckets {
		m[b+".cpu_share"] = ratio(float64(cpu[b]), float64(cpuTotal))
	}
	h.hostMetrics(m, traced)
	if err := h.workloadExtras(m); err != nil {
		return err
	}
	if err := layerReplays(h.o.seed, h.o.scale, m); err != nil {
		return err
	}
	r.metrics = m

	if h.o.traceOut != "" {
		if err := writeSpans(h.o.traceOut, h.o.workload, h.o.seed, rec.spans); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
		r.spanFile = h.o.traceOut
	}
	return nil
}
