// Command miftrace generates and replays block-level workload traces
// against a Redbud configuration — the tool for exploring how arrival
// patterns shape on-disk placement under each preallocation policy.
//
// Usage:
//
//	miftrace gen -pattern shared|strided|random -streams N -region B > t.trace
//	miftrace replay [-policy P] [-drop-rate R] [-spans s.json] [-telemetry m.json] <t.trace|->
//	miftrace spans [-o chrome.json] <s.json|->
//	miftrace critpath [-top K] <s.json|->
//
// The trace format is defined by internal/trace: one op per line,
// `W <client>.<pid> <blk> <count>` or `R <blk> <count>`.
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
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"redbud/internal/pfs"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
	"redbud/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: miftrace {gen|replay|spans|critpath} [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "spans":
		spans(os.Args[2:])
	case "critpath":
		critpath(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "miftrace: unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
}

// gen writes a synthetic trace to stdout.
func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	pattern := fs.String("pattern", "shared", "shared|strided|random")
	streams := fs.Int("streams", 16, "number of write streams")
	region := fs.Int64("region", 512, "blocks per stream region")
	req := fs.Int64("req", 8, "request size in blocks")
	seed := fs.Uint64("seed", 1, "generator seed")
	fs.Parse(args)

	ops, err := trace.Generate(trace.GenConfig{
		Pattern:       *pattern,
		Streams:       *streams,
		RegionBlocks:  *region,
		RequestBlocks: *req,
		ReadBack:      true,
		Seed:          *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Write(os.Stdout, ops); err != nil {
		log.Fatal(err)
	}
}

// replay executes a trace against a fresh mount and reports placement.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	policy := fs.String("policy", "on-demand", "vanilla|reservation|on-demand|static")
	osts := fs.Int("osts", 4, "IO server count")
	spansOut := fs.String("spans", "", "record per-layer spans and write the span log (JSON) to this file")
	telemetryOut := fs.String("telemetry", "", "write the metrics-registry snapshot (JSON) to this file")
	dropRate := fs.Float64("drop-rate", 0, "inject message loss at this rate (0..1); requests drop at the rate, responses at half of it")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injector seed (with -drop-rate)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: miftrace replay [flags] <trace|->")
	}

	var in io.Reader = os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	ops, err := trace.Read(in)
	if err != nil {
		log.Fatal(err)
	}

	kind, err := pfs.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	// Static needs a size hint up front; size to the trace's extent.
	var maxBlk int64
	for _, op := range ops {
		if end := op.Blk + op.Count; end > maxBlk {
			maxBlk = end
		}
	}
	f, err := mount.Create(mount.Root(), "trace.dat", maxBlk)
	if err != nil {
		log.Fatal(err)
	}

	var writes, reads int64
	var writeNs, readNs sim.Ns
	for _, op := range ops {
		switch op.Kind {
		case trace.OpWrite:
			if err := f.Write(op.Stream, op.Blk, op.Count); err != nil {
				log.Fatal(err)
			}
			writes++
		case trace.OpRead:
			if reads == 0 {
				mount.Flush()
				writeNs = mount.DataBusyMax()
				mount.ResetDataStats()
			}
			if err := f.Read(op.Blk, op.Count); err != nil {
				log.Fatal(err)
			}
			reads++
		}
	}
	mount.Flush()
	if reads == 0 {
		writeNs = mount.DataBusyMax()
	} else {
		readNs = mount.DataBusyMax()
	}
	extents, err := mount.TotalExtents(f)
	if err != nil {
		log.Fatal(err)
	}
	st := mount.DataStats()
	fmt.Printf("policy=%s writes=%d reads=%d extents=%d positionings=%d\n",
		*policy, writes, reads, extents, st.Positionings)
	fmt.Printf("write phase %.2f ms, read phase %.2f ms\n",
		sim.Seconds(writeNs)*1e3, sim.Seconds(readNs)*1e3)
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
		fmt.Printf("rpc faults=%d timeouts=%d retries=%d recoveries=%d exhausted=%d\n",
			sum("rpc_faults"), sum("rpc_timeouts"), sum("rpc_retries"),
			sum("rpc_recoveries"), sum("rpc_exhausted"))
	}
	if *spansOut != "" {
		writeFile(*spansOut, tr.WriteSpanLog)
	}
	if *telemetryOut != "" {
		writeFile(*telemetryOut, reg.WriteJSON)
	}
}

// writeFile writes one exporter's output to path.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// spans converts a recorded span log into Chrome trace_event JSON.
func spans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: miftrace spans [-o chrome.json] <spans.json|->")
	}
	var in io.Reader = os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	recorded, err := telemetry.ReadSpanLog(in)
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		if err := telemetry.WriteChromeTrace(os.Stdout, recorded); err != nil {
			log.Fatal(err)
		}
		return
	}
	writeFile(*out, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, recorded) })
}

// critpath analyzes a recorded span log: per-layer self-time attribution
// and the slowest requests.
func critpath(args []string) {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	top := fs.Int("top", 5, "show the K slowest requests with per-layer breakdowns")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: miftrace critpath [-top K] <spans.json|->")
	}
	var in io.Reader = os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	recorded, err := telemetry.ReadSpanLog(in)
	if err != nil {
		log.Fatal(err)
	}
	rep := telemetry.AnalyzeCritPath(recorded, *top)
	if err := rep.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
