package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"redbud/internal/workload"
)

// sweep runs the systematic crash-point sweep and prints its report.
// Returns 0 when the baseline and every (point, mode) run recovered to a
// consistent state, 1 otherwise.
func sweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seed := fs.Uint64("seed", 42, "damage-plan seed (equal seeds render byte-identical reports)")
	points := fs.String("points", "", "comma-separated crash-point subset (default: full registry)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	cfg := workload.DefaultCrashSweepConfig()
	cfg.Seed = *seed
	if *points != "" {
		cfg.Points = strings.Split(*points, ",")
	}
	rep, err := workload.RunCrashSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "miffsck:", err)
		return 1
	}
	rep.Write(os.Stdout)
	if !rep.Passed() {
		return 1
	}
	return 0
}
