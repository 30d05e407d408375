package main

import (
	"flag"
	"io"
	"strings"

	"redbud/internal/workload"
)

// sweep runs the systematic crash-point sweep and writes its report to
// stdout. Returns 0 when the baseline and every (point, mode) run
// recovered to a consistent state, 1 otherwise.
func sweep(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "damage-plan seed (equal seeds render byte-identical reports)")
	points := fs.String("points", "", "comma-separated crash-point subset (default: full registry)")
	if err := parse(fs, args, 0); err != nil {
		return 0, err
	}
	cfg := workload.DefaultCrashSweepConfig()
	cfg.Seed = *seed
	if *points != "" {
		cfg.Points = strings.Split(*points, ",")
	}
	rep, err := workload.RunCrashSweep(cfg)
	if err != nil {
		return 0, err
	}
	rep.Write(stdout)
	if !rep.Passed() {
		return 1, nil
	}
	return 0, nil
}
