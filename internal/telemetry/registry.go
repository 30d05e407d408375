// Package telemetry is the unified observability layer of the Redbud
// reproduction: a metrics registry every component publishes into, and a
// request tracer driven by the simulated clock.
//
// The paper's evaluation is built on exactly this kind of instrumentation —
// it counts disk positioning times and merge rates "by intercepting requests
// at the general block layer" (§5) — and the repository previously exposed
// only scattered per-package Stats structs with no way to follow one request
// across layers. The registry gives every layer a common currency (counters,
// gauges, and latency histograms keyed by labels), while the tracer records
// per-layer spans of individual requests on the virtual timeline, exportable
// as aligned text tables, JSON snapshots, or Chrome trace_event JSON.
//
// Components attach lazily: instrumentation is a nil-guarded side channel,
// so an uninstrumented mount pays one pointer test per hot-path event and
// the pre-existing Stats()/ResetStats() accessors keep working unchanged.
//
// Nothing here is safe for concurrent use, and the label-intern table is
// shared by the whole process: a process records into its registries and
// tracers from one goroutine, the one that drives its mounts.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"redbud/internal/sim"
	"redbud/internal/stats"
)

// Labels is the label set distinguishing instances of one metric, e.g.
// {"layer": "ost", "ost": "2"}.
type Labels map[string]string

// interned is the process-wide canonical-label-string cache. Label sets
// recur constantly (every mount in a run shares a handful of layer/ost/op
// combinations), so canon builds its candidate into a stack buffer and
// returns the one shared heap string per distinct set — repeated
// registrations and lookups of a known label set allocate nothing.
var interned = make(map[string]string)

// internBytes returns the shared string equal to b, creating it on first
// sight. The map lookup on []byte compiles without a conversion allocation,
// so the hit path is allocation-free.
func internBytes(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	s := string(b)
	interned[s] = s
	return s
}

// maxInlineLabels bounds the stack-sorted fast path of canon; label sets in
// this repository have at most four pairs.
const maxInlineLabels = 8

// canon renders labels in a canonical sorted k=v form used as a map key and
// in reports, interned so every equal label set shares one string. An empty
// label set renders as "".
func (l Labels) canon() string {
	if len(l) == 0 {
		return ""
	}
	var inline [maxInlineLabels]string
	var keys []string
	if len(l) <= maxInlineLabels {
		keys = inline[:0]
	} else {
		keys = make([]string, 0, len(l))
	}
	size := 0
	for k := range l {
		keys = append(keys, k)
		size += len(k) + len(l[k]) + 2
	}
	sort.Strings(keys)
	var stack [128]byte
	buf := stack[:0]
	if size > len(stack) {
		buf = make([]byte, 0, size)
	}
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, k...)
		buf = append(buf, '=')
		buf = append(buf, l[k]...)
	}
	return internBytes(buf)
}

// With returns a copy of the labels with one pair added or replaced.
func (l Labels) With(key, value string) Labels {
	out := make(Labels, len(l)+1)
	for k, v := range l {
		out[k] = v
	}
	out[key] = value
	return out
}

// ParseLabels inverts canon: it parses a "k=v,k=v" canonical label string
// back into a Labels map. Label keys and values in this repository never
// contain "," or "=", which makes the round trip exact.
func ParseLabels(canon string) Labels {
	if canon == "" {
		return nil
	}
	out := make(Labels)
	for _, part := range strings.Split(canon, ",") {
		if i := strings.IndexByte(part, '='); i >= 0 {
			out[part[:i]] = part[i+1:]
		}
	}
	return out
}

// Kind distinguishes the metric families.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindSeries    Kind = "series"
)

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v int64
}

// Add increments the counter by n (n may be any sign, but counters are
// conventionally monotone).
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time value.
type Gauge struct {
	v int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v = n }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v += n }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram accumulates a latency (or size) distribution.
type Histogram struct {
	d stats.Dist
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) { h.d.Add(v) }

// Dist returns a deep copy of the accumulated distribution, for analysis
// that needs exact merging across histograms (per-layer percentiles).
func (h *Histogram) Dist() stats.Dist { return h.d.Clone() }

// Snapshot summarizes the distribution so far.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: int64(h.d.Count()), Sum: h.d.Sum()}
	if s.Count > 0 {
		s.Mean = h.d.Mean()
		s.Min = h.d.Min()
		s.Max = h.d.Max()
		s.P50 = h.d.Percentile(50)
		s.P95 = h.d.Percentile(95)
		s.P99 = h.d.Percentile(99)
	}
	return s
}

// HistSnapshot is a histogram summary at one instant.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// metric is one registered instrument.
type metric struct {
	name    string
	labels  string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	series  *Series
	// funcs are snapshot-time collectors; their values sum. They let
	// components publish pre-existing Stats fields without touching hot
	// paths, and multiple mounts sharing one registry accumulate.
	funcs []func() int64
}

// Registry is a set of named metrics. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	metrics map[string]*metric
	events  *EventLog
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Events returns the registry's bounded structured event log, creating it
// on first use. Every component instrumented into the registry shares one
// log, so a run's rare events (retries, faults, evictions, preemptions)
// interleave on a single timeline. Safe on a nil registry (returns a nil
// log, whose methods are no-ops).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	if r.events == nil {
		r.events = NewEventLog(DefaultMaxEvents)
	}
	return r.events
}

// key builds the registry key for a name+labels pair (report formatting;
// the hot lookup path builds its key into a stack buffer instead).
func key(name string, labels Labels) string {
	return name + "{" + labels.canon() + "}"
}

// lookup finds or creates the metric, panicking on a kind clash — two
// components registering the same name with different kinds is an
// instrumentation bug that would silently corrupt reports. Looking up an
// already-registered identity allocates nothing: the canonical label string
// is interned and the key is assembled in a stack buffer the map indexes
// without conversion.
func (r *Registry) lookup(name string, labels Labels, kind Kind) *metric {
	canon := labels.canon()
	var stack [192]byte
	buf := stack[:0]
	if n := len(name) + len(canon) + 2; n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, name...)
	buf = append(buf, '{')
	buf = append(buf, canon...)
	buf = append(buf, '}')
	m, ok := r.metrics[string(buf)]
	if !ok {
		m = &metric{name: name, labels: canon, kind: kind}
		r.metrics[internBytes(buf)] = m
	} else if m.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, was %s", string(buf), kind, m.kind))
	}
	return m
}

// Counter returns the counter for name+labels, creating it on first use.
// Repeated calls with the same identity return the same counter.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	m := r.lookup(name, labels, KindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	m := r.lookup(name, labels, KindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram returns the histogram for name+labels, creating it on first
// use. Components sharing an identity observe into the same distribution.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	m := r.lookup(name, labels, KindHistogram)
	if m.hist == nil {
		m.hist = &Histogram{}
	}
	return m.hist
}

// Series returns the windowed time-series for name+labels, creating it on
// first use with the given window width and ring capacity (non-positive
// values take the defaults). Components sharing an identity — several
// mounts on one registry — observe into the same series, merging their
// samples per window; the creation-time window/capacity of the first
// registration wins.
func (r *Registry) Series(name string, labels Labels, window sim.Ns, buckets int) *Series {
	m := r.lookup(name, labels, KindSeries)
	if m.series == nil {
		m.series = newSeries(window, buckets)
	}
	return m.series
}

// Histograms calls fn for every registered histogram with a deep copy of
// its distribution, in name-then-labels order. It is the raw-sample export
// the per-layer percentile aggregation is built on (HistSnapshot summaries
// cannot be merged exactly).
func (r *Registry) Histograms(fn func(name string, labels Labels, d stats.Dist)) {
	list := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		if m.hist != nil {
			list = append(list, m)
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].name != list[j].name {
			return list[i].name < list[j].name
		}
		return list[i].labels < list[j].labels
	})
	for _, m := range list {
		fn(m.name, ParseLabels(m.labels), m.hist.Dist())
	}
}

// CounterFunc registers a snapshot-time collector rendered as a counter.
// Multiple registrations under one identity sum — the natural semantics
// when several mounts share a registry.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() int64) {
	m := r.lookup(name, labels, KindCounter)
	m.funcs = append(m.funcs, fn)
}

// GaugeFunc registers a snapshot-time collector rendered as a gauge;
// multiple registrations sum.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() int64) {
	m := r.lookup(name, labels, KindGauge)
	m.funcs = append(m.funcs, fn)
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Name   string          `json:"name"`
	Labels string          `json:"labels,omitempty"`
	Kind   Kind            `json:"kind"`
	Value  int64           `json:"value,omitempty"`
	Hist   *HistSnapshot   `json:"hist,omitempty"`
	Series *SeriesSnapshot `json:"series,omitempty"`
}

// Snapshot returns every metric's current state, sorted by name then
// labels.
func (r *Registry) Snapshot() []MetricSnapshot {
	out := make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		snap := MetricSnapshot{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch {
		case m.hist != nil:
			h := m.hist.Snapshot()
			snap.Hist = &h
		case m.series != nil:
			s := m.series.Snapshot()
			snap.Series = &s
		default:
			var v int64
			if m.counter != nil {
				v += m.counter.Value()
			}
			if m.gauge != nil {
				v += m.gauge.Value()
			}
			for _, fn := range m.funcs {
				v += fn()
			}
			snap.Value = v
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WriteText renders the registry as aligned tables: scalar metrics first,
// then histograms with their latency summary columns, then time-series
// summaries and the structured event totals.
func (r *Registry) WriteText(w io.Writer) error {
	snaps := r.Snapshot()
	scalars := stats.NewTable("metric", "labels", "kind", "value")
	hists := stats.NewTable("histogram", "labels", "count", "mean", "p50", "p95", "p99", "max")
	series := stats.NewTable("series", "labels", "window ms", "windows", "sum", "dropped")
	var nScalar, nHist, nSeries int
	for _, s := range snaps {
		switch {
		case s.Hist != nil:
			nHist++
			hists.AddRowf(s.Name, s.Labels, s.Hist.Count,
				fmt.Sprintf("%.0f", s.Hist.Mean), s.Hist.P50, s.Hist.P95, s.Hist.P99, s.Hist.Max)
		case s.Series != nil:
			nSeries++
			var sum int64
			for _, b := range s.Series.Buckets {
				sum += b.Sum
			}
			series.AddRowf(s.Name, s.Labels,
				fmt.Sprintf("%.1f", sim.Seconds(s.Series.WindowNs)*1e3),
				len(s.Series.Buckets), sum, s.Series.Dropped)
		default:
			nScalar++
			scalars.AddRowf(s.Name, s.Labels, string(s.Kind), s.Value)
		}
	}
	sections := 0
	render := func(n int, t *stats.Table) error {
		if n == 0 {
			return nil
		}
		if sections > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		sections++
		return t.Render(w)
	}
	if err := render(nScalar, scalars); err != nil {
		return err
	}
	if err := render(nHist, hists); err != nil {
		return err
	}
	if err := render(nSeries, series); err != nil {
		return err
	}
	if counts := r.Events().Counts(); len(counts) > 0 {
		events := stats.NewTable("event", "kind", "count")
		for _, c := range counts {
			events.AddRowf(c.Layer, c.Kind, c.Count)
		}
		if err := render(len(counts), events); err != nil {
			return err
		}
	}
	if sections == 0 {
		_, err := fmt.Fprintln(w, "(no metrics registered)")
		return err
	}
	return nil
}

// RegistryDoc is the JSON-exporter document: the metric snapshot plus the
// structured event log.
type RegistryDoc struct {
	Metrics []MetricSnapshot `json:"metrics"`
	Events  *EventsSnapshot  `json:"events,omitempty"`
}

// Doc builds the exporter document. The event section is omitted when no
// events were recorded, keeping event-free snapshots compact.
func (r *Registry) Doc() RegistryDoc {
	doc := RegistryDoc{Metrics: r.Snapshot()}
	if ev := r.Events().Snapshot(); len(ev.Counts) > 0 {
		doc.Events = &ev
	}
	return doc
}

// WriteJSON writes the registry document (metrics + events) as indented
// JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Doc())
}
