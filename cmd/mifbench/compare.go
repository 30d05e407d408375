package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"redbud/internal/benchsnap"
)

// runCompare implements the `mifbench compare <old> <new>` subcommand:
// diff the simulated content of two BENCH.json snapshots exactly, then
// report the wall clock beside the hosts it was measured on. Returns 1
// when any simulated metric or result cell differs or an experiment is on
// one side only, 2 on usage errors and on inputs that cannot be compared.
func runCompare(args []string, stdout io.Writer) int {
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
	if err := res.WriteText(stdout, *verbose); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "host old: %v\nhost new: %v\n", old.Host, cur.Host)
	if err := benchsnap.WriteWallTable(stdout, benchsnap.WallDeltas(old, cur)); err != nil {
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
