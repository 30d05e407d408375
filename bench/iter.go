package main

import (
	"fmt"

	"redbud/internal/telemetry"
)

// simCounts are the four simulated end-to-end quantities of one iteration.
// The program is deterministic, so every iteration of a run must report
// exactly the same four numbers; the harness fails the run otherwise.
type simCounts struct {
	Ns           int64 // simulated nanoseconds, summed over the phases
	Positionings int64 // disk head positionings, all disks
	DiskRequests int64 // block-layer requests, all disks
	Extents      int64 // extents/segments at the end of the iteration
}

func (s *simCounts) add(o simCounts) {
	s.Ns += o.Ns
	s.Positionings += o.Positionings
	s.DiskRequests += o.DiskRequests
	s.Extents += o.Extents
}

// iter is the state of one iteration: what the driver counts while it
// applies the op list, and the switches that turn the traced pass's
// recording on. The zero switches are the untraced, timed configuration.
type iter struct {
	// verify runs the correctness checks (the warm-up iteration); timed
	// iterations only count unexpected errors.
	verify bool
	// rec, when set, records a host-time span around every driver call.
	rec *recorder
	// obs, when set, attaches a registry and tracers to every instance the
	// workload builds, so the program's own counters and simulated-time
	// spans can be read afterwards.
	obs *observer

	calls, failed int64 // driver calls, and those returning an unexpected error
	checks, bad   int64 // correctness checks, and those that failed
	problems      []string

	sim    simCounts
	shapes map[string]float64 // quantities the paper-shape checks compare
}

// begin opens a driver call. It costs one counter increment when no
// recorder is attached, and allocates nothing either way.
func (it *iter) begin(name spanName) spanRef {
	it.calls++
	if it.rec == nil {
		return noSpan
	}
	return it.rec.start(name, it.calls)
}

// end closes a driver call; a non-nil err is an unexpected failure.
func (it *iter) end(ref spanRef, err error) {
	if ref != noSpan {
		it.rec.finish(ref)
	}
	if err != nil {
		it.failed++
		it.problem("call %d: %v", it.calls, err)
	}
}

// check records one correctness check.
func (it *iter) check(ok bool, format string, args ...interface{}) {
	it.checks++
	if !ok {
		it.bad++
		it.problem(format, args...)
	}
}

// maxProblems bounds the retained failure messages; the counts stay exact.
const maxProblems = 8

func (it *iter) problem(format string, args ...interface{}) {
	if len(it.problems) < maxProblems {
		it.problems = append(it.problems, fmt.Sprintf(format, args...))
	}
}

// shape records a named quantity for the paper-shape checks.
func (it *iter) shape(name string, v float64) {
	if it.shapes == nil {
		it.shapes = make(map[string]float64)
	}
	it.shapes[name] = v
}

// instance opens the span that groups the driver calls made to one fresh
// instance (a mount, a metadata server, a loaded image).
func (it *iter) instance() spanRef {
	if it.rec == nil {
		return noSpan
	}
	return it.rec.push(spInstance)
}

// endInstance closes a span opened by instance.
func (it *iter) endInstance(ref spanRef) {
	if ref != noSpan {
		it.rec.pop(ref)
	}
}

// observer collects what the program itself reports during a traced
// iteration: one registry shared by every instance the workload builds
// (equal metric names sum), and the per-layer simulated self time of every
// tracer, analysed as soon as its instance is done so that the spans of
// only one instance are alive at a time.
type observer struct {
	reg     *telemetry.Registry
	selfNs  map[string]int64 // layer -> simulated self time
	spans   int64
	dropped int64
}

func newObserver() *observer {
	return &observer{reg: telemetry.NewRegistry(), selfNs: make(map[string]int64)}
}

// tracer returns a fresh unbounded tracer for one instance.
func (o *observer) tracer() *telemetry.Tracer {
	tr := telemetry.NewTracer(nil)
	tr.SetMaxSpans(0)
	return tr
}

// done folds one instance's spans into the per-layer self times.
func (o *observer) done(tr *telemetry.Tracer) {
	spans := tr.Spans()
	o.spans += int64(len(spans))
	o.dropped += tr.Dropped()
	for _, l := range telemetry.AnalyzeCritPath(spans, 0).Layers {
		o.selfNs[l.Layer] += l.SelfNs
	}
}

// counters sums the registry's scalar metrics by name, across labels.
func (o *observer) counters() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range o.reg.Snapshot() {
		if m.Hist == nil && m.Series == nil {
			out[m.Name] += m.Value
		}
	}
	return out
}

// observers returns the registry and tracer a workload attaches to the
// instance it is about to build, both nil on untraced iterations.
func (it *iter) observers() (*telemetry.Registry, *telemetry.Tracer) {
	if it.obs == nil {
		return nil, nil
	}
	return it.obs.reg, it.obs.tracer()
}

// observed hands a finished instance's tracer back for analysis.
func (it *iter) observed(tr *telemetry.Tracer) {
	if it.obs != nil && tr != nil {
		it.obs.done(tr)
	}
}
