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

// TestReplayRunsOpLists: replay runs a metadata experiment's op list, in
// the shape the workload drivers write — directories and MDS inodes by
// slot, a file opened, written, read and closed — not only block traces.
func TestReplayRunsOpLists(t *testing.T) {
	list := `mkdir 0 client00
create 1 f000000
setlayout 0 140 512
utime 1 f000000
stat 1 f000000
readdirplus 1 1
unlink 1 f000000
mkdir 0 pm00
fcreate 2 pm0000000 4
W 0.1 0 4
close
sync
dropcaches
open 2 pm0000000
R 0 4
close
delete 2 pm0000000
delete-if-present 2 pm0000000
rmdir 0 client00
`
	path := filepath.Join(t.TempDir(), "ops.trace")
	if err := os.WriteFile(path, []byte(list), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := run([]string{"replay", path}, &stdout); code != 0 {
		t.Fatalf("miftrace replay: exit %d", code)
	}
	if !strings.HasPrefix(stdout.String(), "policy=on-demand writes=1 reads=1 extents=0 ") {
		t.Errorf("replay report:\n%s", stdout.String())
	}
	// A list that reads a file it never opened fails, naming the op.
	if err := os.WriteFile(path, []byte("mkdir 0 d\nR 0 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"replay", path}, &bytes.Buffer{}); code != 1 {
		t.Errorf("replaying a read with no open file: exit %d, want 1", code)
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
