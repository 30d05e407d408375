package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redbud/internal/pfs"
)

// TestCrashReviveRepairScript drives a replicated session in-process: an
// IO server crashes between two writes, revives, and the repair drain
// brings every component back to full strength.
func TestCrashReviveRepairScript(t *testing.T) {
	cfg, err := mountConfig("on-demand", "embedded", 4, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := strings.Join([]string{
		"create /a.dat",
		"write /a.dat 1.1 0 256",
		"crash 1",
		"write /a.dat 1.1 256 256",
		"revive 1",
		"repair",
		"replicas /a.dat",
		"report",
	}, "\n")
	var out bytes.Buffer
	if err := runScript(fs, cfg.Metrics, cfg.Trace, strings.NewReader(script), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "repair: ") || !strings.Contains(text, ", 0 components still under-replicated") {
		t.Errorf("repair left components under-replicated:\n%s", text)
	}
	if strings.Contains(text, "DOWN") {
		t.Errorf("report shows a server down after the revive:\n%s", text)
	}
	if mgr := fs.Replication(); mgr.Stats().RepairsDone == 0 {
		t.Errorf("the crash caused no repair:\n%s", text)
	}
}

func TestUnknownPolicyIsRejected(t *testing.T) {
	_, err := mountConfig("bogus", "embedded", 4, false, 1)
	if err == nil {
		t.Fatal("unknown -policy accepted")
	}
	for _, name := range []string{"bogus", "vanilla", "reservation", "on-demand", "static"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// TestUnknownLayoutIsRejected: a -layout mifctl does not know is refused
// instead of mounting the embedded layout, and the error names every
// known one.
func TestUnknownLayoutIsRejected(t *testing.T) {
	_, err := mountConfig("on-demand", "bogus", 4, false, 1)
	if err == nil {
		t.Fatal("unknown -layout accepted")
	}
	for _, name := range []string{"bogus", "normal", "embedded"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// TestBadCommandLines: an unknown flag and a wrong positional count are
// usage errors (exit 2); an unknown policy, layout or script op, or an
// unreadable script, fails the session (exit 1).
func TestBadCommandLines(t *testing.T) {
	dir := t.TempDir()
	script := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := script("good", "create /a.dat\nwrite /a.dat 1.1 0 64\nreport\n")
	bad := script("bad", "create /a.dat\nbogus /a.dat\n")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{good}, 0}, {[]string{"-layout", "normal", good}, 0},
		{[]string{"-bogus", good}, 2}, {nil, 2}, {[]string{good, good}, 2},
		{[]string{"-policy", "bogus", good}, 1}, {[]string{"-layout", "bogus", good}, 1},
		{[]string{bad}, 1}, {[]string{filepath.Join(dir, "missing")}, 1},
	} {
		if code := run(tc.args, &bytes.Buffer{}); code != tc.code {
			t.Errorf("mifctl %q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
