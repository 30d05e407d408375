package main

import (
	"fmt"
	"os"

	"redbud/internal/workload"
)

// runCrashSweep executes the systematic crash-point sweep: every
// registered crash point (journal commit/checkpoint, IO-server
// write/flush/truncate/migrate, replica repair, cache barriers) is armed
// in turn with each applicable power-fail tear mode, the mount is killed
// there, recovered (journal replay, remount, IO-server scrub,
// re-replication), and verified. The experiment hard-fails unless every
// run recovers to a consistent state. The sweep's cost is fixed by the
// registry, not the benchmark scale, so -scale is ignored.
func runCrashSweep(scale float64) error {
	header("Crash sweep: power-fail injection at every registered crash point")
	_ = scale
	cfg := workload.DefaultCrashSweepConfig()
	cfg.Metrics = benchReg
	rep, err := workload.RunCrashSweep(cfg)
	if err != nil {
		return err
	}
	rep.Write(os.Stdout)
	if !rep.Passed() {
		return fmt.Errorf("crash sweep failed: %d of %d runs did not recover consistent", rep.Failures(), len(rep.Runs))
	}
	fmt.Println("every crash point recovered to an fsck-clean, fully replicated state with all acknowledged data readable")
	return nil
}
