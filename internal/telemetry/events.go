package telemetry

import (
	"sort"

	"redbud/internal/sim"
)

// DefaultMaxEvents bounds the event log's ring. Rare-event rates (retries,
// evictions, preemptions) stay far below this in healthy runs; a run that
// overflows it keeps the most recent window plus exact per-kind totals.
const DefaultMaxEvents = 4096

// EventRecord is one structured occurrence on the simulated timeline: a
// retry, a timeout, an injected fault, a cache eviction, a defrag
// preemption. Unlike a span it has no duration and unlike a counter it
// keeps its timestamp and context, so post-run analysis can line rare
// events up against the latency curves.
type EventRecord struct {
	At     sim.Ns `json:"at"`
	Layer  string `json:"layer"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded structured event recorder. The ring keeps the most
// recent DefaultMaxEvents records (flight-recorder semantics); per
// layer/kind totals are tracked exactly regardless of ring overflow. Every
// method is safe on a nil receiver, so uninstrumented paths stay
// unconditional.
type EventLog struct {
	max     int
	ring    []EventRecord
	start   int // index of the oldest record when the ring is full
	full    bool
	dropped int64
	counts  map[eventKey]int64
}

// eventKey identifies one layer/kind total.
type eventKey struct{ layer, kind string }

// NewEventLog builds an event log retaining up to max records (non-positive
// max takes DefaultMaxEvents).
func NewEventLog(max int) *EventLog {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &EventLog{max: max, counts: make(map[eventKey]int64)}
}

// Emit records one event at simulated instant at.
func (l *EventLog) Emit(at sim.Ns, layer, kind, detail string) {
	if l == nil {
		return
	}
	l.counts[eventKey{layer, kind}]++
	rec := EventRecord{At: at, Layer: layer, Kind: kind, Detail: detail}
	if len(l.ring) < l.max {
		l.ring = append(l.ring, rec)
		return
	}
	l.full = true
	l.dropped++
	l.ring[l.start] = rec
	l.start = (l.start + 1) % l.max
}

// Len returns the retained record count.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Dropped returns how many records the ring has discarded.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Records returns the retained events, oldest first.
func (l *EventLog) Records() []EventRecord {
	if l == nil {
		return nil
	}
	out := make([]EventRecord, 0, len(l.ring))
	if l.full {
		out = append(out, l.ring[l.start:]...)
		out = append(out, l.ring[:l.start]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// EventCount is one layer/kind total, exact even past ring overflow.
type EventCount struct {
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// Counts returns the per layer/kind totals sorted by layer then kind.
func (l *EventLog) Counts() []EventCount {
	if l == nil {
		return nil
	}
	out := make([]EventCount, 0, len(l.counts))
	for k, n := range l.counts {
		out = append(out, EventCount{Layer: k.layer, Kind: k.kind, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// EventsSnapshot is the exported event-log state.
type EventsSnapshot struct {
	Counts  []EventCount  `json:"counts,omitempty"`
	Recent  []EventRecord `json:"recent,omitempty"`
	Dropped int64         `json:"dropped,omitempty"`
}

// Snapshot exports totals plus the retained ring.
func (l *EventLog) Snapshot() EventsSnapshot {
	return EventsSnapshot{Counts: l.Counts(), Recent: l.Records(), Dropped: l.Dropped()}
}
