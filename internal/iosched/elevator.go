// Package iosched implements an elevator (C-SCAN-style) I/O scheduler with
// adjacent-request merging, standing in for the Linux CFQ scheduler on the
// paper's testbed.
//
// The scheduler matters to the reproduction because of the paper's Fig. 6(b)
// argument: "the scheduler underlying file systems can not merge the
// fragmentary requests on disk", so small, scattered allocations translate
// into many separate positionings. A merging elevator makes that effect
// emerge naturally: requests that the allocator placed contiguously collapse
// into few large transfers, requests it scattered do not.
package iosched

import (
	"cmp"
	"slices"

	"redbud/internal/disk"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Request is one block-level I/O request as seen by the scheduler.
type Request struct {
	// Start is the first block of the request.
	Start int64
	// Count is the length of the request in blocks.
	Count int64
	// Write selects the transfer direction.
	Write bool
}

// End returns the block just past the request.
func (r Request) End() int64 { return r.Start + r.Count }

// Stats accumulates scheduler-level counters.
type Stats struct {
	// Submitted counts requests handed to the scheduler.
	Submitted int64
	// Dispatched counts requests issued to the disk after merging.
	Dispatched int64
	// Merged counts requests absorbed into a neighbour.
	Merged int64
}

// Sub returns the field-wise difference s - o, isolating the counters of
// one benchmark phase — the same delta idiom disk.Stats supports.
func (s Stats) Sub(o Stats) Stats {
	s.Submitted -= o.Submitted
	s.Dispatched -= o.Dispatched
	s.Merged -= o.Merged
	return s
}

// Elevator sorts batches of outstanding requests by start block and merges
// physically adjacent requests of the same direction before dispatching them
// to a disk. The queue window bounds how many outstanding requests the
// scheduler may reorder at once, like a real device queue.
type Elevator struct {
	// QueueDepth is the reorder window. Requests are scheduled in
	// consecutive windows of this many requests; a window of 1 disables
	// reordering entirely. Zero or negative means unbounded. QueueDepth is
	// read at Schedule time; set it before submitting work.
	QueueDepth int

	stats Stats

	// batchHist, when attached, observes the submitted size of every
	// scheduled batch. tracer, when attached, records dispatch and
	// per-request disk spans.
	batchHist *telemetry.Histogram
	tracer    *telemetry.Tracer

	// out and window are Schedule's scratch, kept between calls.
	out, window []Request
}

// NewElevator returns an elevator with the given reorder window.
func NewElevator(queueDepth int) *Elevator {
	return &Elevator{QueueDepth: queueDepth}
}

// Stats returns a snapshot of the scheduler counters — the same snapshot
// semantics as disk.Disk.Stats, so per-phase deltas (snapshot, run,
// snapshot, Sub) work identically across both layers.
func (e *Elevator) Stats() Stats {
	return e.stats
}

// ResetStats zeroes the scheduler counters for a new measurement phase,
// mirroring disk.Disk.ResetStats.
func (e *Elevator) ResetStats() {
	e.stats = Stats{}
}

// Instrument publishes the scheduler counters into the registry and
// attaches a batch-size histogram observed on every Schedule call.
func (e *Elevator) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	e.batchHist = reg.Histogram("iosched_batch_requests", labels)
	reg.CounterFunc("iosched_submitted", labels, func() int64 { return e.Stats().Submitted })
	reg.CounterFunc("iosched_dispatched", labels, func() int64 { return e.Stats().Dispatched })
	reg.CounterFunc("iosched_merged", labels, func() int64 { return e.Stats().Merged })
}

// Span layers, span names, attribute keys and event names, interned once
// per process.
var (
	layerIosched     = telemetry.Intern("iosched")
	layerDisk        = telemetry.Intern("disk")
	spanDispatch     = telemetry.Intern("dispatch")
	spanRead         = telemetry.Intern("read")
	spanWrite        = telemetry.Intern("write")
	attrSubmitted    = telemetry.Intern("submitted")
	attrDispatched   = telemetry.Intern("dispatched")
	attrMerged       = telemetry.Intern("merged")
	attrStart        = telemetry.Intern("start")
	attrBlocks       = telemetry.Intern("blocks")
	eventPositioning = telemetry.Intern("positioning")
)

// SetTracer attaches (or with nil detaches) the span tracer used by
// RunTraced.
func (e *Elevator) SetTracer(t *telemetry.Tracer) {
	e.tracer = t
}

// Schedule returns the dispatch order for a batch of outstanding requests:
// sorted by start block within each queue window, with physically adjacent
// same-direction requests merged. The input slice is not modified. The
// result is the elevator's scratch, valid until the next Schedule or Run.
func (e *Elevator) Schedule(reqs []Request) []Request {
	e.stats.Submitted += int64(len(reqs))
	if e.batchHist != nil {
		e.batchHist.Observe(int64(len(reqs)))
	}
	if len(reqs) == 0 {
		return nil
	}
	window := e.QueueDepth
	if window <= 0 {
		window = len(reqs)
	}
	out := e.out[:0]
	for lo := 0; lo < len(reqs); lo += window {
		hi := min(lo+window, len(reqs))
		buf := append(e.window[:0], reqs[lo:hi]...)
		slices.SortFunc(buf, func(a, b Request) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Count, b.Count))
		})
		out = appendMerged(out, buf, &e.stats, len(out))
		e.window = buf
	}
	e.stats.Dispatched += int64(len(out))
	e.out = out
	return out
}

// appendMerged appends the sorted window to out, merging adjacent and
// overlapping requests. firstNew marks where this window begins in out so
// merging never reaches into a previous window (a real elevator cannot
// merge with a request it has already dispatched).
func appendMerged(out, window []Request, st *Stats, firstNew int) []Request {
	for _, r := range window {
		if n := len(out); n > firstNew {
			last := &out[n-1]
			// The window is sorted, so r.Start >= last.Start. Any request
			// touching or overlapping the previous one merges: adjacent
			// requests concatenate, contained duplicates collapse, and a
			// partial overlap is trimmed into a front merge — the disk
			// must not be charged twice for the overlapped blocks.
			if last.Write == r.Write && r.Start <= last.End() {
				if r.End() > last.End() {
					last.Count = r.End() - last.Start
				}
				st.Merged++
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// Run schedules the batch and services every dispatched request on d,
// returning the total simulated service time. It is the one-stop path used
// by the IO servers: queue, sort, merge, dispatch.
func (e *Elevator) Run(d *disk.Disk, reqs []Request) sim.Ns {
	return e.RunTraced(d, reqs, 0)
}

// RunTraced is Run with span recording: when a tracer is attached, the
// whole dispatch becomes an "iosched" span under parent, each serviced
// request a child "disk" span whose duration is its service time (the trace
// clock advances by each request's cost), annotated with its placement and
// flagged with a "positioning" event when the head had to move — the
// block-layer interception the paper measures with, reproduced on the
// simulated timeline. Without a tracer it is exactly Run.
func (e *Elevator) RunTraced(d *disk.Disk, reqs []Request, parent telemetry.SpanID) sim.Ns {
	t := e.tracer
	if t == nil {
		var total sim.Ns
		for _, r := range e.Schedule(reqs) {
			total += d.Access(r.Start, r.Count, r.Write)
		}
		return total
	}

	sp := t.Begin(layerIosched, spanDispatch, parent)
	before := e.Stats()
	sched := e.Schedule(reqs)
	delta := e.Stats().Sub(before)
	sp.AnnotateInt(attrSubmitted, int64(len(reqs)))
	sp.AnnotateInt(attrDispatched, int64(len(sched)))
	sp.AnnotateInt(attrMerged, int64(delta.Merged))
	var total sim.Ns
	for _, r := range sched {
		name := spanRead
		if r.Write {
			name = spanWrite
		}
		ds := t.Begin(layerDisk, name, sp.ID())
		pos := d.Stats().Positionings
		cost := d.Access(r.Start, r.Count, r.Write)
		t.Advance(cost)
		if d.Stats().Positionings > pos {
			ds.Event(eventPositioning)
		}
		ds.AnnotateInt(attrStart, int64(r.Start))
		ds.AnnotateInt(attrBlocks, int64(r.Count))
		ds.End()
		total += cost
	}
	sp.End()
	return total
}
