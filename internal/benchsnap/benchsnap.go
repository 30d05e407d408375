// Package benchsnap defines the BENCH.json snapshot format and the exact
// comparison over it. Every mifbench run can emit a schema-versioned
// snapshot (one record per experiment: wall-clock and simulated totals,
// the result tables the experiment printed, the full counter set,
// per-layer latency percentiles, and structured-event totals; the
// time-series curves stay in `mifbench -telemetry`), and `mifbench
// compare` diffs two snapshots: the committed BENCH.json pins every
// simulated quantity — the paper's headline numbers included — so a
// change that moves one has to refresh the file, and that file's diff is
// the drift report.
//
// Determinism contract: everything in a snapshot except the volatile
// fields (Snapshot.CreatedWall, Snapshot.Host, Experiment.WallNs) is
// derived from the simulated clock and deterministic counters, so two
// identical-seed runs produce byte-identical snapshots modulo those
// fields. StripVolatile clears them for byte comparison; Compare never
// looks at them.
package benchsnap

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"redbud/internal/experiment"
	"redbud/internal/sim"
	"redbud/internal/stats"
	"redbud/internal/telemetry"
)

// SchemaVersion tags snapshot documents; Read rejects other versions.
const SchemaVersion = "redbud-bench/3"

// Snapshot is one BENCH.json document: a named benchmark run at a given
// workload scale, one Experiment per mifbench phase.
type Snapshot struct {
	Schema string `json:"schema"`
	// Name labels the run (the experiment selection, e.g. "all").
	Name string `json:"name"`
	// CreatedWall is the wall-clock creation time (RFC 3339). Volatile:
	// excluded from comparison and from StripVolatile'd output.
	CreatedWall string `json:"created_wall,omitempty"`
	// Host is the machine the wall-clock fields were measured on, filled
	// in by the command that ran the experiments. Volatile.
	Host        *Host        `json:"host,omitempty"`
	Scale       float64      `json:"scale"`
	Experiments []Experiment `json:"experiments"`
}

// Host records what WallNs depends on besides the code.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// String renders the host on one line; a snapshot without one (stripped,
// or built by a test) prints as "not recorded".
func (h *Host) String() string {
	if h == nil {
		return "not recorded"
	}
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d NumCPU=%d", h.GoVersion, h.GOOS, h.GOARCH, h.GOMAXPROCS, h.NumCPU)
}

// Experiment is one benchmark phase's record.
type Experiment struct {
	Name string `json:"name"`
	// WallNs is the phase's wall-clock duration. Volatile.
	WallNs int64 `json:"wall_ns"`
	// SimNs is the simulated time the phase advanced the trace clock by.
	SimNs sim.Ns `json:"sim_ns"`
	// Results holds the experiment's result tables — the numbers mifbench
	// prints and EXPERIMENTS.md reports — filled in by the command that
	// ran the experiment.
	Results []experiment.Table `json:"results,omitempty"`
	// Counters holds every scalar metric (counters and gauges) keyed
	// "name{labels}" in the registry's canonical form.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Layers is the per-layer latency decomposition: all *_ns histograms
	// of one layer merged sample-exactly, summarized as percentiles.
	Layers []LayerLatency `json:"layers,omitempty"`
	// Events holds the structured-event totals by layer/kind.
	Events []telemetry.EventCount `json:"events,omitempty"`
}

// LayerLatency summarizes one layer's merged latency distribution.
type LayerLatency struct {
	Layer  string  `json:"layer"`
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// New builds an empty snapshot stamped with the current wall clock.
func New(name string, scale float64) *Snapshot {
	return &Snapshot{
		Schema:      SchemaVersion,
		Name:        name,
		CreatedWall: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale,
	}
}

// StripVolatile clears the wall-clock fields and the host, leaving only
// deterministic content — after it, two identical-seed runs marshal
// byte-identically.
func (s *Snapshot) StripVolatile() {
	s.CreatedWall = ""
	s.Host = nil
	for i := range s.Experiments {
		s.Experiments[i].WallNs = 0
	}
}

// Write serializes the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Read parses and validates a snapshot document. Experiments, result
// tables, rows and columns are matched by name, so a document that names
// one twice is rejected, as is a row whose width is not its table's.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("benchsnap: parse snapshot: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchsnap: snapshot schema %q, want %q", s.Schema, SchemaVersion)
	}
	seen := make(map[string]bool, len(s.Experiments))
	for _, e := range s.Experiments {
		if seen[e.Name] {
			return nil, fmt.Errorf("benchsnap: experiment %q recorded twice", e.Name)
		}
		seen[e.Name] = true
		tables := make(map[string]bool, len(e.Results))
		for _, t := range e.Results {
			if tables[t.ID] {
				return nil, fmt.Errorf("benchsnap: experiment %q: result table %q recorded twice", e.Name, t.ID)
			}
			tables[t.ID] = true
			if err := t.Check(); err != nil {
				return nil, fmt.Errorf("benchsnap: experiment %q: %w", e.Name, err)
			}
		}
	}
	return &s, nil
}

// Collector gathers one experiment's record from a registry and a tracer.
// Construct it at phase start (it remembers the clocks' starting points),
// run the phase, then Finish.
type Collector struct {
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	simStart  sim.Ns
	wallStart time.Time
	// nowWall is the wall-clock source, replaceable in tests.
	nowWall func() time.Time
}

// StartExperiment begins collecting: the registry should be freshly
// created for the phase (per-phase records are absolute registry state,
// not deltas), while the tracer's clock may carry over from earlier
// phases — only its advance during the phase is recorded.
func StartExperiment(reg *telemetry.Registry, tracer *telemetry.Tracer) *Collector {
	return &Collector{
		reg:       reg,
		tracer:    tracer,
		simStart:  tracer.Now(),
		wallStart: time.Now(),
		nowWall:   time.Now,
	}
}

// Finish builds the experiment record from the registry's current state.
func (c *Collector) Finish(name string) Experiment {
	exp := Experiment{
		Name:   name,
		WallNs: c.nowWall().Sub(c.wallStart).Nanoseconds(),
		SimNs:  c.tracer.Now() - c.simStart,
	}

	counters := make(map[string]int64)
	for _, m := range c.reg.Snapshot() {
		switch {
		case m.Hist != nil:
			// folded into Layers below, sample-exactly
		case m.Series != nil:
			// curves are not part of the record
		default:
			counters[m.Name+"{"+m.Labels+"}"] = m.Value
		}
	}
	if len(counters) > 0 {
		exp.Counters = counters
	}
	exp.Layers = layerLatencies(c.reg)
	exp.Events = c.reg.Events().Counts()
	return exp
}

// layerLatencies merges every *_ns histogram by its layer label and
// summarizes each layer as percentiles, ordered by the canonical layer
// stack.
func layerLatencies(reg *telemetry.Registry) []LayerLatency {
	merged := make(map[string]*stats.Dist)
	reg.Histograms(func(name string, labels telemetry.Labels, d stats.Dist) {
		if !strings.HasSuffix(name, "_ns") {
			return
		}
		layer := labels["layer"]
		if layer == "" {
			return
		}
		m := merged[layer]
		if m == nil {
			m = &stats.Dist{}
			merged[layer] = m
		}
		m.Merge(&d)
	})
	out := make([]LayerLatency, 0, len(merged))
	for layer, d := range merged {
		if d.Count() == 0 {
			continue
		}
		out = append(out, LayerLatency{
			Layer:  layer,
			Count:  int64(d.Count()),
			MeanNs: d.Mean(),
			P50Ns:  d.Percentile(50),
			P95Ns:  d.Percentile(95),
			P99Ns:  d.Percentile(99),
			MaxNs:  d.Max(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := telemetry.LayerRank(out[i].Layer), telemetry.LayerRank(out[j].Layer)
		if ri != rj {
			return ri < rj
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}
