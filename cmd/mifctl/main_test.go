package main

import (
	"bytes"
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
	if err := run(fs, cfg.Metrics, cfg.Trace, strings.NewReader(script), &out); err != nil {
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
