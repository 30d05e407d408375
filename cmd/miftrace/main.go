// Command miftrace generates and replays workload traces against a Redbud
// configuration — the tool for exploring how arrival patterns shape on-disk
// placement under each preallocation policy.
//
// Usage:
//
//	miftrace gen -pattern shared|strided|random -streams N -region B > t.trace
//	miftrace replay [-policy P] [-drop-rate R] [-spans s.json] [-telemetry m.json] <t.trace|->
//	miftrace spans [-o chrome.json] <s.json|->
//	miftrace critpath [-top K] <s.json|->
//
// The trace format is defined by internal/trace: one op per line, a block
// trace's `W <client>.<pid> <blk> <count>` and `R <blk> <count>`, or any
// op of the experiments' lists, `mkdir 0 d`, `fcreate 1 f 8`, `fsync` or
// `use 1`. Replay runs every op through workload.Apply on a fresh mount,
// measured by workload.RunPhases as the data drivers measure theirs. A
// block trace, one that opens with a W or an R, writes trace.dat, created
// first; the write phase runs up to the first read, and the extents are
// those of the file current at the end.
//
// With -spans, replay records every operation's per-layer spans on the
// simulated timeline and writes them as a span-log JSON document; with
// -telemetry it writes the mount's metrics-registry snapshot as JSON. The
// spans subcommand converts a recorded span log into Chrome trace_event
// JSON for chrome://tracing or Perfetto. The critpath subcommand runs the
// critical-path analyzer over a span log: per-request latency is
// attributed to the layer that actually spent it (a span's self time is
// its duration minus its children's), printed as a per-layer breakdown
// plus the top-K slowest requests with their own decompositions.
//
// With -drop-rate, replay splices the deterministic fault injector into
// the rpc transport: requests are lost at the given rate (responses at
// half of it), the client retries with backoff, and the run reports the
// rpc-layer fault/retry counters — a quick proof that a trace completes
// under message loss.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"redbud/internal/pfs"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
	"redbud/internal/trace"
	"redbud/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// errUsage marks a flag error, which has printed the subcommand's usage.
var errUsage = errors.New("bad flags")

// run executes one miftrace command line, writing its report to stdout,
// and returns the process exit code: 2 for an unknown subcommand or flag,
// 1 for a failed subcommand, a wrong argument count included.
func run(args []string, stdout io.Writer) int {
	subcommands := map[string]func([]string, io.Writer) error{
		"gen": gen, "replay": replay, "spans": spans, "critpath": critpath,
	}
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: miftrace {gen|replay|spans|critpath} [flags]")
		return 2
	}
	err := subcommands[args[0]](args[1:], stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(os.Stderr, "miftrace %s: %v\n", args[0], err)
	return 1
}

// parse parses a subcommand's flags and requires want positional
// arguments.
func parse(fs *flag.FlagSet, args []string, want int, usage string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() != want {
		return fmt.Errorf("usage: miftrace %s", usage)
	}
	return nil
}

// open opens a named input, "-" meaning stdin.
func open(name string) (io.ReadCloser, error) {
	if name == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(name)
}

// gen writes a synthetic trace to stdout.
func gen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	pattern := fs.String("pattern", "shared", "shared|strided|random")
	streams := fs.Int("streams", 16, "number of write streams")
	region := fs.Int64("region", 512, "blocks per stream region")
	req := fs.Int64("req", 8, "request size in blocks")
	seed := fs.Uint64("seed", 1, "generator seed")
	if err := parse(fs, args, 0, "gen [flags]"); err != nil {
		return err
	}
	ops, err := trace.Generate(trace.GenConfig{
		Pattern:       *pattern,
		Streams:       *streams,
		RegionBlocks:  *region,
		RequestBlocks: *req,
		ReadBack:      true,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}
	return trace.Write(stdout, ops)
}

// replay executes a trace against a fresh mount and reports placement.
func replay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	policy := fs.String("policy", "on-demand", "vanilla|reservation|on-demand|static")
	osts := fs.Int("osts", 4, "IO server count")
	spansOut := fs.String("spans", "", "record per-layer spans and write the span log (JSON) to this file")
	telemetryOut := fs.String("telemetry", "", "write the metrics-registry snapshot (JSON) to this file")
	dropRate := fs.Float64("drop-rate", 0, "inject message loss at this rate (0..1); requests drop at the rate, responses at half of it")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injector seed (with -drop-rate)")
	if err := parse(fs, args, 1, "replay [flags] <trace|->"); err != nil {
		return err
	}
	in, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	ops, err := trace.Read(in)
	if err != nil {
		return err
	}

	kind, err := pfs.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := pfs.MiF(*osts).WithPolicy(kind)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	if *dropRate > 0 {
		fault := rpc.UniformFaults(*faultSeed, *dropRate)
		cfg.RPC.Fault = &fault
	}
	var tr *telemetry.Tracer
	if *spansOut != "" {
		tr = telemetry.NewTracer(nil)
		cfg.Trace = tr
	}
	mount, err := pfs.New(cfg)
	if err != nil {
		return err
	}
	// A block trace, one that opens with a W or an R, writes a file it
	// does not create: create it first, sized to the trace's extent, since
	// static needs a size hint up front. The write phase runs up to the
	// first read.
	var maxBlk, writes, reads int64
	first := len(ops)
	for i, op := range ops {
		switch op.Kind {
		case trace.OpRead:
			first = min(first, i)
			reads++
		case trace.OpWrite:
			writes++
		}
		if op.Kind == trace.OpWrite || op.Kind == trace.OpRead {
			maxBlk = max(maxBlk, op.Blk+op.Count)
		}
	}
	if len(ops) > 0 && (ops[0].Kind == trace.OpWrite || ops[0].Kind == trace.OpRead) {
		ops = append([]trace.Op{{Kind: trace.OpCreateFile, Name: "trace.dat", Count: maxBlk}}, ops...)
		first++
	}
	p, err := workload.RunPhases(workload.MountTarget(mount), ops, first, len(ops), true)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "policy=%s writes=%d reads=%d extents=%d positionings=%d\n",
		*policy, writes, reads, p.Extents, p.Stats.Positionings)
	fmt.Fprintf(stdout, "write phase %.2f ms, read phase %.2f ms\n",
		sim.Seconds(p.WriteNs)*1e3, sim.Seconds(p.ReadNs)*1e3)
	if *dropRate > 0 {
		sum := func(name string) int64 {
			var total int64
			for _, s := range reg.Snapshot() {
				if s.Name == name {
					total += s.Value
				}
			}
			return total
		}
		fmt.Fprintf(stdout, "rpc faults=%d timeouts=%d retries=%d recoveries=%d exhausted=%d\n",
			sum("rpc_faults"), sum("rpc_timeouts"), sum("rpc_retries"),
			sum("rpc_recoveries"), sum("rpc_exhausted"))
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, tr.WriteSpanLog); err != nil {
			return err
		}
	}
	if *telemetryOut != "" {
		return writeFile(*telemetryOut, reg.WriteJSON)
	}
	return nil
}

// writeFile writes one exporter's output to path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpanLog reads a recorded span log from a named input.
func readSpanLog(name string) ([]telemetry.Span, error) {
	in, err := open(name)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return telemetry.ReadSpanLog(in)
}

// spans converts a recorded span log into Chrome trace_event JSON.
func spans(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := parse(fs, args, 1, "spans [-o chrome.json] <spans.json|->"); err != nil {
		return err
	}
	recorded, err := readSpanLog(fs.Arg(0))
	if err != nil {
		return err
	}
	write := func(w io.Writer) error { return telemetry.WriteChromeTrace(w, recorded) }
	if *out == "" {
		return write(stdout)
	}
	return writeFile(*out, write)
}

// critpath analyzes a recorded span log: per-layer self-time attribution
// and the slowest requests.
func critpath(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	top := fs.Int("top", 5, "show the K slowest requests with per-layer breakdowns")
	if err := parse(fs, args, 1, "critpath [-top K] <spans.json|->"); err != nil {
		return err
	}
	recorded, err := readSpanLog(fs.Arg(0))
	if err != nil {
		return err
	}
	return telemetry.AnalyzeCritPath(recorded, *top).WriteText(stdout)
}
