package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pipeline runs gen → replay under message loss with spans and telemetry
// → spans → critpath in dir, in-process, and returns every output: each
// subcommand's stdout and each file it wrote.
func pipeline(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	path := func(name string) string { return filepath.Join(dir, name) }
	out := map[string][]byte{}
	step := func(name string, args ...string) {
		t.Helper()
		var stdout bytes.Buffer
		if code := run(args, &stdout); code != 0 {
			t.Fatalf("miftrace %s: exit %d", strings.Join(args, " "), code)
		}
		out[name] = stdout.Bytes()
	}
	step("gen", "gen", "-streams", "4", "-region", "128")
	if err := os.WriteFile(path("t.trace"), out["gen"], 0o644); err != nil {
		t.Fatal(err)
	}
	step("replay", "replay", "-drop-rate", "0.05", "-spans", path("s.json"),
		"-telemetry", path("m.json"), path("t.trace"))
	step("spans", "spans", path("s.json"))
	step("critpath", "critpath", path("s.json"))
	for _, f := range []string{"s.json", "m.json"} {
		b, err := os.ReadFile(path(f))
		if err != nil {
			t.Fatal(err)
		}
		out[f] = b
	}
	return out
}

// TestPipelineIsDeterministic runs the whole tool chain twice: every
// output must be byte-identical run to run, and the replay under loss must
// complete with no call exhausting its retries.
func TestPipelineIsDeterministic(t *testing.T) {
	first := pipeline(t, t.TempDir())
	second := pipeline(t, t.TempDir())
	for name, want := range first {
		if len(want) == 0 {
			t.Errorf("%s: empty output", name)
		}
		if !bytes.Equal(second[name], want) {
			t.Errorf("%s differs between two runs of the same command lines", name)
		}
	}
	replay := string(first["replay"])
	if !strings.Contains(replay, "rpc faults=") || !strings.Contains(replay, "exhausted=0") {
		t.Errorf("replay under loss did not report a clean retry layer:\n%s", replay)
	}
}

// TestBadCommandLines: an unknown subcommand or flag is a usage error
// (exit 2); a subcommand's wrong arguments or unreadable input fail it
// (exit 1).
func TestBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, {[]string{"bogus"}, 2},
		{[]string{"gen", "-bogus"}, 2}, {[]string{"replay", "-bogus", "t.trace"}, 2},
		{[]string{"spans", "-bogus", "s.json"}, 2}, {[]string{"critpath", "-bogus", "s.json"}, 2},
		{[]string{"replay"}, 1}, {[]string{"spans", "a", "b"}, 1},
		{[]string{"critpath", "no-such-file.json"}, 1},
	} {
		if code := run(tc.args, &bytes.Buffer{}); code != tc.code {
			t.Errorf("miftrace %q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
