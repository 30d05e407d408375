// Command mifbench regenerates every table and figure of the MiF paper's
// evaluation against the simulated Redbud parallel file system.
//
// Usage:
//
//	mifbench [flags] <experiment>
//
// Experiments:
//
//	fig6a    micro-benchmark throughput vs stream count (Figure 6a)
//	fig6b    micro-benchmark throughput vs allocation size (Figure 6b)
//	fig7     IOR and BTIO macro-benchmarks (Figure 7)
//	table1   segment counts and MDS CPU utilization (Table I)
//	fig8     Metarates metadata workloads (Figure 8)
//	fig9     file system aging impact (Figure 9)
//	fig10    PostMark and applications (Figure 10)
//	ablation design-choice sweeps beyond the paper
//	defrag   online-defragmentation recovery after aging
//	cache    client block cache off vs on (write-back aggregation, re-reads)
//	failover OST crash under replication (steering + re-replication)
//	crashsweep power-fail injection at every registered crash point
//	all      everything above in order
//
// With -telemetry <file>, every data-path mount is instrumented into a
// shared metrics registry and a per-phase snapshot (one entry per
// experiment) is written as JSON next to the printed results. With
// -trace <file>, request spans across the full IO path (pfs → mds/ost →
// iosched → disk) are recorded on the simulated timeline and written as
// Chrome trace_event JSON, with a "phase" marker at each experiment
// boundary; open it in chrome://tracing or Perfetto. With -spans <file>,
// the same spans are written in the raw redbud-spans/1 log format that
// `miftrace critpath` and `miftrace spans` consume.
//
// With -bench-json <file>, the run emits a schema-versioned snapshot (see
// internal/benchsnap): the host, and one record per experiment holding
// wall-clock and simulated totals, every counter, per-layer latency
// percentiles, and structured-event totals. The registry feeding it is
// recreated at each phase boundary so records are per-experiment
// (combining with -telemetry therefore turns its snapshots into per-phase
// deltas too). Compare two snapshots with
//
//	mifbench compare [-v] <old> <new>
//
// which exits 1 when any simulated metric differs in either direction or
// an experiment is on one side only, and reports the wall clock without
// judging it. The committed BENCH.json is the baseline: a change that
// moves a simulated quantity refreshes it (`make bench`) in the same PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"redbud/internal/benchsnap"
	"redbud/internal/pfs"
	"redbud/internal/telemetry"
)

// benchReg and benchTracer, when non-nil, are attached to every mount the
// experiments build (via instrumented); phaseSnaps accumulates one registry
// snapshot per completed experiment when -telemetry asked for them.
var (
	benchReg       *telemetry.Registry
	benchTracer    *telemetry.Tracer
	phaseSnaps     []phaseSnapshot
	wantPhaseSnaps bool
)

// phaseSnapshot is the per-experiment telemetry record written by
// -telemetry: the registry state after the named phase completed.
type phaseSnapshot struct {
	Phase   string                     `json:"phase"`
	Metrics []telemetry.MetricSnapshot `json:"metrics"`
}

// instrumented applies the session-wide telemetry attachments to one mount
// configuration. With neither flag set it is the identity.
func instrumented(cfg pfs.Config) pfs.Config {
	cfg.Metrics = benchReg
	cfg.Trace = benchTracer
	return cfg
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command: it returns the exit status instead of
// exiting so a test can drive it in-process, and starts from a clean
// session so it can be called more than once.
func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	benchReg, benchTracer, phaseSnaps, wantPhaseSnaps = nil, nil, nil, false
	benchSnap, benchResetSpans = nil, false

	fs := flag.NewFlagSet("mifbench", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mifbench [flags] {fig6a|fig6b|fig7|table1|fig8|fig9|fig10|ablation|defrag|cache|failover|crashsweep|all}\n")
		fmt.Fprintf(os.Stderr, "       mifbench compare [-v] <old.json> <new.json>\n")
		fs.PrintDefaults()
	}
	scale := fs.Float64("scale", 1.0, "workload scale factor (file sizes, file counts)")
	telemetryOut := fs.String("telemetry", "", "write per-phase metrics-registry snapshots (JSON) to this file")
	traceOut := fs.String("trace", "", "record request spans and write Chrome trace_event JSON to this file")
	spansOut := fs.String("spans", "", "record request spans and write the raw span log (for miftrace critpath) to this file")
	benchJSON := fs.String("bench-json", "", "write a benchsnap snapshot (BENCH.json) to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *telemetryOut != "" {
		benchReg = telemetry.NewRegistry()
		wantPhaseSnaps = true
	}
	if *traceOut != "" || *spansOut != "" {
		benchTracer = telemetry.NewTracer(nil)
	}
	exp := fs.Arg(0)
	if *benchJSON != "" {
		benchSnap = benchsnap.New(exp, *scale)
		benchSnap.Host = &benchsnap.Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		}
		// The snapshot needs the simulated clock and per-op durations, so
		// a tracer is always attached; when nothing else wants the spans
		// themselves, they are discarded at each phase boundary.
		if benchTracer == nil {
			benchTracer = telemetry.NewTracer(nil)
			benchResetSpans = true
		}
	}
	runners := map[string]func(float64) error{
		"fig6a":      runFig6a,
		"fig6b":      runFig6b,
		"fig7":       runFig7,
		"table1":     runTable1,
		"fig8":       runFig8,
		"fig9":       runFig9,
		"fig10":      runFig10,
		"ablation":   runAblation,
		"defrag":     runDefrag,
		"cache":      runCache,
		"failover":   runFailover,
		"crashsweep": runCrashSweep,
	}
	var order = []string{"fig6a", "fig6b", "fig7", "table1", "fig8", "fig9", "fig10", "ablation", "defrag", "cache", "failover", "crashsweep"}
	if exp != "all" {
		if _, ok := runners[exp]; !ok {
			fs.Usage()
			return 2
		}
		order = []string{exp}
	}
	for _, name := range order {
		if err := runPhase(name, runners[name], *scale); err != nil {
			fmt.Fprintf(os.Stderr, "mifbench %s: %v\n", name, err)
			return 1
		}
	}
	// A nil tracer or snapshot has an empty path and is skipped.
	outputs := []struct {
		path  string
		write func(io.Writer) error
	}{
		{*telemetryOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(phaseSnaps)
		}},
		{*traceOut, benchTracer.WriteChromeTrace},
		{*spansOut, benchTracer.WriteSpanLog},
		{*benchJSON, benchSnap.Write},
	}
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		if err := writeOutput(o.path, o.write); err != nil {
			fmt.Fprintf(os.Stderr, "mifbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runPhase runs one experiment, bracketed by a phase marker on the trace
// timeline and followed by a registry snapshot. With -bench-json the
// registry is recreated per phase (records are per-experiment state) and
// a benchsnap collector brackets the run.
func runPhase(name string, fn func(float64) error, scale float64) error {
	if benchSnap != nil {
		benchReg = telemetry.NewRegistry()
	}
	benchTracer.Mark("phase", name)
	var col *benchsnap.Collector
	if benchSnap != nil {
		col = benchsnap.StartExperiment(benchReg, benchTracer)
	}
	if err := fn(scale); err != nil {
		return err
	}
	if wantPhaseSnaps {
		phaseSnaps = append(phaseSnaps, phaseSnapshot{Phase: name, Metrics: benchReg.Snapshot()})
	}
	if col != nil {
		benchSnap.Experiments = append(benchSnap.Experiments, col.Finish(name))
		if benchResetSpans {
			benchTracer.Reset()
		}
	}
	return nil
}

// writeOutput writes one exporter's output to path.
func writeOutput(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// header prints an experiment banner.
func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
