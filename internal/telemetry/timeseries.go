package telemetry

import (
	"sync"

	"redbud/internal/sim"
)

// Series defaults. A 100 ms window over 4096 buckets covers ~410 s of
// simulated time per registry — longer than any single mifbench phase —
// while keeping a snapshot small enough to export with `mifbench -telemetry`.
const (
	DefaultSeriesWindow  sim.Ns = 100 * sim.Millisecond
	DefaultSeriesBuckets        = 4096
)

// Series is a windowed time-series: samples are bucketed by simulated time
// into fixed-width windows held in a ring buffer. It is the registry's
// "metric over time" instrument — counters sampled into it yield
// throughput curves (per-window sums), gauges yield level curves
// (per-window last value), which is how experiments report aging
// trajectories instead of single end-of-run numbers.
//
// The ring retains the most recent Buckets windows; observations that land
// beyond the ring advance it, discarding the oldest windows and counting
// them as dropped (no silent truncation). Samples always carry their own
// simulated timestamp, so a series is exactly as deterministic as the
// clock that feeds it.
type Series struct {
	mu     sync.Mutex
	window sim.Ns
	// buckets is the ring; bucket b (absolute index at/window) lives at
	// buckets[b%len(buckets)] while lo <= b < lo+len(buckets).
	buckets []seriesBucket
	lo      int64 // lowest retained absolute bucket index
	hi      int64 // highest observed absolute bucket index
	started bool  // false until the first observation fixes lo
	dropped int64 // windows pushed out of the ring, plus late samples
}

// seriesBucket accumulates one window.
type seriesBucket struct {
	sum  int64
	n    int64
	last int64
}

// newSeries builds a series with the given window width and ring capacity
// (defaults applied for non-positive values).
func newSeries(window sim.Ns, buckets int) *Series {
	if window <= 0 {
		window = DefaultSeriesWindow
	}
	if buckets <= 0 {
		buckets = DefaultSeriesBuckets
	}
	return &Series{window: window, buckets: make([]seriesBucket, buckets)}
}

// Window returns the bucket width.
func (s *Series) Window() sim.Ns {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window
}

// bucketFor returns the ring slot for absolute bucket index b, advancing
// the ring (and dropping old windows) as needed. Callers hold s.mu. It
// returns nil for a late sample older than the retained range.
func (s *Series) bucketFor(b int64) *seriesBucket {
	n := int64(len(s.buckets))
	if !s.started {
		s.started = true
		s.lo, s.hi = b, b
	}
	if b < s.lo {
		s.dropped++
		return nil
	}
	for b >= s.lo+n {
		// Evict the oldest window to make room at the head.
		slot := &s.buckets[s.lo%n]
		if slot.n > 0 {
			s.dropped++
		}
		*slot = seriesBucket{}
		s.lo++
	}
	if b > s.hi {
		s.hi = b
	}
	return &s.buckets[b%n]
}

// Add records v at simulated instant at, summing into the window
// containing at. A sample at an exact window boundary k*window belongs to
// window k (half-open windows [k*w, (k+1)*w)).
func (s *Series) Add(at sim.Ns, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.bucketFor(at / s.window); b != nil {
		b.sum += v
		b.n++
		b.last = v
	}
}

// Set records a level sample: like Add, but intended for gauge-style
// values where the window's last value (exported as Last) is the curve
// and the sum is meaningless. It shares storage with Add so a single
// series can be read either way.
func (s *Series) Set(at sim.Ns, v int64) { s.Add(at, v) }

// SeriesBucket is one exported window.
type SeriesBucket struct {
	Sum  int64 `json:"sum"`
	N    int64 `json:"n"`
	Last int64 `json:"last"`
}

// SeriesSnapshot is a series' state at one instant: the retained windows
// from StartNs, each WindowNs wide, oldest first. Empty trailing windows
// are trimmed; interior gaps are preserved as zero buckets so curves keep
// their time axis.
type SeriesSnapshot struct {
	WindowNs sim.Ns         `json:"window_ns"`
	StartNs  sim.Ns         `json:"start_ns"`
	Buckets  []SeriesBucket `json:"buckets"`
	Dropped  int64          `json:"dropped,omitempty"`
}

// Snapshot exports the retained windows.
func (s *Series) Snapshot() SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SeriesSnapshot{WindowNs: s.window, Dropped: s.dropped}
	if !s.started {
		return snap
	}
	snap.StartNs = s.lo * s.window
	n := int64(len(s.buckets))
	for b := s.lo; b <= s.hi; b++ {
		sb := s.buckets[b%n]
		snap.Buckets = append(snap.Buckets, SeriesBucket{Sum: sb.sum, N: sb.n, Last: sb.last})
	}
	return snap
}
