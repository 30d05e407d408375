package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redbud/internal/benchsnap"
)

// TestSimulatedMetricsMatchBaseline is the drift gate: it reruns the cheap
// experiments in-process and requires each record to equal the committed
// BENCH.json's in every simulated metric. Simulated time is the model's
// output, so a change that moves it — up or down — fails here until it
// commits the refreshed file (`make bench`), whose diff is the drift
// report. `make benchcheck` is the same comparison over all experiments.
func TestSimulatedMetricsMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments at full scale")
	}
	baseline, err := readSnapshot(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]benchsnap.Experiment)
	for _, e := range baseline.Experiments {
		want[e.Name] = e
	}

	// The experiments print their tables to stdout.
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = stdout
		devnull.Close()
	}()

	dir := t.TempDir()
	for _, name := range []string{"fig6a", "fig10", "defrag", "cache", "failover", "crashsweep"} {
		out := filepath.Join(dir, name+".json")
		if code := run([]string{"-bench-json", out, name}); code != 0 {
			t.Fatalf("mifbench -bench-json %s: exit %d", name, code)
		}
		got, err := readSnapshot(out)
		if err != nil {
			t.Fatal(err)
		}
		old := &benchsnap.Snapshot{Scale: baseline.Scale, Experiments: []benchsnap.Experiment{want[name]}}
		res, err := benchsnap.Compare(old, got)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			var report strings.Builder
			res.WriteText(&report, false)
			t.Errorf("%s drifted from BENCH.json:\n%s", name, report.String())
		}
	}
}
