// Command mifbench regenerates every table and figure of the MiF paper's
// evaluation against the simulated Redbud parallel file system. It holds
// no experiment of its own: it parses flags, loops over the catalogue in
// internal/experiment, prints each experiment's result tables, and
// collects the artifacts below.
//
// Usage:
//
//	mifbench [flags] <experiment>|all
//	mifbench compare [-v] <old.json> <new.json>
//	mifbench report <BENCH.json> <EXPERIMENTS.md>
//
// Run it without arguments for the experiment list.
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
// wall-clock and simulated totals, the result tables it printed, every
// counter, per-layer latency percentiles, and structured-event totals.
// The registry feeding it is recreated at each phase boundary so records
// are per-experiment (combining with -telemetry therefore turns its
// snapshots into per-phase deltas too).
//
// compare exits 1 when any simulated metric or result cell differs in
// either direction or an experiment is on one side only, and reports the
// wall clock without judging it. The committed BENCH.json is the
// baseline: a change that moves a simulated quantity refreshes it (`make
// bench`) in the same PR. report rewrites the generated blocks of
// EXPERIMENTS.md — result tables and the ✔/◐/✘ verdict of each
// paper-reported shape (experiment.Shapes) — from a snapshot's results,
// leaving the hand-written text between blocks alone.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"redbud/internal/benchsnap"
	"redbud/internal/experiment"
	"redbud/internal/telemetry"
)

// phaseSnapshot is the per-experiment telemetry record written by
// -telemetry: the registry state after the named phase completed.
type phaseSnapshot struct {
	Phase   string                     `json:"phase"`
	Metrics []telemetry.MetricSnapshot `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// experimentNames lists the catalogue for the usage line.
func experimentNames() []string {
	names := make([]string, len(experiment.All))
	for i, e := range experiment.All {
		names[i] = e.Name
	}
	return names
}

// run is the whole command: it returns the exit status instead of
// exiting and prints results to stdout, so a test can drive it
// in-process.
func run(args []string, stdout io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout)
		case "report":
			return runReport(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("mifbench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mifbench [flags] {%s|all}\n", strings.Join(experimentNames(), "|"))
		fmt.Fprintf(os.Stderr, "       mifbench compare [-v] <old.json> <new.json>\n")
		fmt.Fprintf(os.Stderr, "       mifbench report <BENCH.json> <EXPERIMENTS.md>\n")
		for _, e := range experiment.All {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.Name, e.Summary)
		}
		fs.PrintDefaults()
	}
	scale := fs.Float64("scale", 1.0, "workload scale factor (file sizes, file counts)")
	telemetryOut := fs.String("telemetry", "", "write per-phase metrics-registry snapshots (JSON) to this file")
	traceOut := fs.String("trace", "", "record request spans and write Chrome trace_event JSON to this file")
	spansOut := fs.String("spans", "", "record request spans and write the raw span log (for miftrace critpath) to this file")
	benchJSON := fs.String("bench-json", "", "write a benchsnap snapshot (BENCH.json) to this file")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	selected := experiment.All
	if name := fs.Arg(0); name != "all" {
		selected = nil
		for _, e := range experiment.All {
			if e.Name == name {
				selected = []experiment.Experiment{e}
			}
		}
		if selected == nil {
			fs.Usage()
			return 2
		}
	}

	// reg and tracer, when non-nil, are attached to every mount the
	// experiments build.
	var (
		reg        *telemetry.Registry
		tracer     *telemetry.Tracer
		phaseSnaps []phaseSnapshot
		snap       *benchsnap.Snapshot
		// resetSpans marks that the tracer exists only to time the
		// snapshot (no -trace/-spans output), so its span buffer is
		// discarded at each phase boundary to bound memory — Reset keeps
		// the clock running.
		resetSpans bool
	)
	if *telemetryOut != "" {
		reg = telemetry.NewRegistry()
	}
	if *traceOut != "" || *spansOut != "" {
		tracer = telemetry.NewTracer(nil)
	}
	if *benchJSON != "" {
		snap = benchsnap.New(fs.Arg(0), *scale)
		snap.Host = &benchsnap.Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		}
		// The snapshot needs the simulated clock and per-op durations, so
		// a tracer is always attached.
		if tracer == nil {
			tracer = telemetry.NewTracer(nil)
			resetSpans = true
		}
	}

	// Each experiment is bracketed by a phase marker on the trace
	// timeline and followed by a registry snapshot. With -bench-json the
	// registry is recreated per phase (records are per-experiment state)
	// and a benchsnap collector brackets the run.
	for _, e := range selected {
		if snap != nil {
			reg = telemetry.NewRegistry()
		}
		tracer.Mark("phase", e.Name)
		var col *benchsnap.Collector
		if snap != nil {
			col = benchsnap.StartExperiment(reg, tracer)
		}
		tables, err := e.Run(experiment.Env{Scale: *scale, Metrics: reg, Trace: tracer})
		if err == nil {
			err = experiment.WriteText(stdout, tables)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mifbench %s: %v\n", e.Name, err)
			return 1
		}
		if *telemetryOut != "" {
			phaseSnaps = append(phaseSnaps, phaseSnapshot{Phase: e.Name, Metrics: reg.Snapshot()})
		}
		if col != nil {
			rec := col.Finish(e.Name)
			rec.Results = tables
			snap.Experiments = append(snap.Experiments, rec)
			if resetSpans {
				tracer.Reset()
			}
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
		{*traceOut, tracer.WriteChromeTrace},
		{*spansOut, tracer.WriteSpanLog},
		{*benchJSON, snap.Write},
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

// flagExit is the exit status of a failed flag parse, as flag.ExitOnError
// has it: 0 after -h printed the usage, 2 otherwise.
func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
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
