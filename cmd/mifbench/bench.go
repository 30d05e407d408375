package main

import (
	"flag"
	"fmt"
	"os"

	"redbud/internal/benchsnap"
)

// Benchmark-snapshot session state. With -bench-json, benchSnap collects
// one benchsnap.Experiment per phase; benchResetSpans marks that the
// session's tracer exists only to time the snapshot (no -trace/-spans
// output), so its span buffer can be discarded at each phase boundary to
// bound memory — Reset keeps the clock running.
var (
	benchSnap       *benchsnap.Snapshot
	benchResetSpans bool
)

// runCompare implements the `mifbench compare <old> <new>` subcommand:
// diff the simulated content of two BENCH.json snapshots exactly, then
// report the wall clock beside the hosts it was measured on. Returns 1
// when any simulated metric differs or an experiment is on one side only,
// 2 on usage errors and on inputs that cannot be compared.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mifbench compare [-v] <old.json> <new.json>\n")
		fs.PrintDefaults()
	}
	verbose := fs.Bool("v", false, "list every drifted metric, not just the largest")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "mifbench compare: %v\n", err)
		return 2
	}
	old, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	cur, err := readSnapshot(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	res, err := benchsnap.Compare(old, cur)
	if err != nil {
		return fail(err)
	}
	if err := res.WriteText(os.Stdout, *verbose); err != nil {
		return fail(err)
	}
	fmt.Printf("host old: %v\nhost new: %v\n", old.Host, cur.Host)
	if err := benchsnap.WriteWallTable(os.Stdout, benchsnap.WallDeltas(old, cur)); err != nil {
		return fail(err)
	}
	if res.Failed() {
		return 1
	}
	return 0
}

// readSnapshot loads one snapshot file.
func readSnapshot(path string) (*benchsnap.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := benchsnap.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
