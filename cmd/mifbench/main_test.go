package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"redbud/internal/benchsnap"
	"redbud/internal/experiment"
)

func readBaseline(t *testing.T) *benchsnap.Snapshot {
	t.Helper()
	baseline, err := readSnapshot(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	return baseline
}

// TestSimulatedMetricsMatchBaseline is the drift gate: it reruns the cheap
// experiments in-process and requires each record to equal the committed
// BENCH.json's in every simulated metric and every result cell. Simulated
// time is the model's output, so a change that moves it — up or down —
// fails here until it commits the refreshed file (`make bench`), whose
// diff is the drift report. `make benchcheck` is the same comparison over
// all experiments.
func TestSimulatedMetricsMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments at full scale")
	}
	baseline := readBaseline(t)
	want := make(map[string]benchsnap.Experiment)
	for _, e := range baseline.Experiments {
		want[e.Name] = e
	}
	dir := t.TempDir()
	for _, name := range []string{"fig6a", "fig10", "defrag", "cache", "failover", "crashsweep"} {
		out := filepath.Join(dir, name+".json")
		if code := run([]string{"-bench-json", out, name}, io.Discard); code != 0 {
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

// TestCatalogueMatchesBaseline runs nothing: the catalogue, the usage
// list, the committed snapshot and the shapes must describe the same
// experiments, tables and columns.
func TestCatalogueMatchesBaseline(t *testing.T) {
	baseline := readBaseline(t)
	var recorded []string
	for _, e := range baseline.Experiments {
		recorded = append(recorded, e.Name)
	}
	if names := experimentNames(); !reflect.DeepEqual(names, recorded) {
		t.Fatalf("usage list %v, BENCH.json records %v", names, recorded)
	}
	declared := make(map[string][]experiment.Column) // table ID → columns
	owner := make(map[string]string)                 // table ID → experiment
	for i, e := range experiment.All {
		if len(e.Tables) != len(baseline.Experiments[i].Results) {
			t.Errorf("%s declares %d tables, BENCH.json records %d", e.Name, len(e.Tables), len(baseline.Experiments[i].Results))
			continue
		}
		for j, tab := range e.Tables {
			if owner[tab.ID] != "" {
				t.Errorf("table ID %q declared by %s and %s", tab.ID, owner[tab.ID], e.Name)
			}
			owner[tab.ID], declared[tab.ID] = e.Name, tab.Columns
			got := baseline.Experiments[i].Results[j]
			if got.ID != tab.ID || !reflect.DeepEqual(got.Columns, tab.Columns) {
				t.Errorf("%s: BENCH.json table %q columns %+v, catalogue declares %q %+v", e.Name, got.ID, got.Columns, tab.ID, tab.Columns)
			}
		}
	}
	for _, s := range experiment.Shapes {
		if owner[s.Table] != s.Experiment {
			t.Errorf("shape %q reads table %q of %q, which belongs to %q", s.Claim, s.Table, s.Experiment, owner[s.Table])
		}
		for _, want := range s.Columns {
			found := false
			for _, c := range declared[s.Table] {
				found = found || c.Name == want
			}
			if !found {
				t.Errorf("shape %q reads column %q, which table %q does not declare", s.Claim, want, s.Table)
			}
		}
	}
}

// TestExperimentsDocIsFixedPoint requires the committed EXPERIMENTS.md to
// be what `mifbench report BENCH.json EXPERIMENTS.md` would write: its
// tables and its ✔/◐/✘ verdicts are the committed results judged by
// experiment.Shapes, not a hand copy. Regenerate with `make bench`, or
// with the report subcommand alone when only the document was edited.
func TestExperimentsDocIsFixedPoint(t *testing.T) {
	blocks, err := reportBlocks(readBaseline(t))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, changed, err := experiment.Rewrite(string(doc), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) > 0 {
		t.Fatalf("EXPERIMENTS.md generated blocks %v differ from BENCH.json's results; run `go run ./cmd/mifbench report BENCH.json EXPERIMENTS.md`", changed)
	}
}
