package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"redbud/internal/telemetry"
)

// TestTelemetryFileIsDeterministic runs `mifbench -scale 0.25 -telemetry
// f fig6a` twice in-process: the two per-phase snapshot files must be
// byte-identical.
func TestTelemetryFileIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("t%d.json", i))
		if code := run([]string{"-scale", "0.25", "-telemetry", path, "fig6a"}, io.Discard); code != 0 {
			t.Fatalf("mifbench -telemetry %s fig6a: exit %d", path, code)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if len(files[0]) == 0 {
		t.Fatal("empty telemetry file")
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("telemetry files of two identical runs differ: %d bytes vs %d bytes", len(files[0]), len(files[1]))
	}
}

// TestSpanLogFeedsCritPath: the span log `mifbench -spans` writes reads
// back as `miftrace critpath` reads it, and the analyzer attributes its
// requests to layers.
func TestSpanLogFeedsCritPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if code := run([]string{"-scale", "0.25", "-spans", path, "fig6a"}, io.Discard); code != 0 {
		t.Fatalf("mifbench -spans %s fig6a: exit %d", path, code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.ReadSpanLog(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := telemetry.AnalyzeCritPath(spans, 5)
	if rep.Roots == 0 || rep.TotalNs == 0 || len(rep.Layers) == 0 {
		t.Fatalf("critical path of %d spans attributes nothing: %d roots, %d ns, %d layers",
			len(spans), rep.Roots, rep.TotalNs, len(rep.Layers))
	}
}

// TestBadCommandLines: an unknown flag, experiment or input and a wrong
// argument count are usage errors (exit 2), in every subcommand.
func TestBadCommandLines(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, args := range [][]string{
		{"-bogus", "fig6a"}, {"bogus"}, {}, {"fig6a", "fig7"},
		{"compare", "-bogus", missing, missing}, {"compare", missing}, {"compare", missing, missing},
		{"report", missing}, {"report", missing, missing},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("mifbench %q: exit %d, want 2", args, code)
		}
	}
}
