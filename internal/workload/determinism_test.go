package workload

import (
	"bytes"
	"strings"
	"testing"

	"redbud/internal/pfs"
	"redbud/internal/rpc"
	"redbud/internal/telemetry"
)

// TestFaultyRunReplaysByteIdentically is the determinism guard: two runs
// of the same experiment, same seed, with the fault injector mounted,
// must produce byte-identical telemetry. Every source of
// randomness — arrival jitter and fault injection alike — draws from
// seeded sim RNGs, never from global math/rand state.
func TestFaultyRunReplaysByteIdentically(t *testing.T) {
	run := func() ([]byte, int64) {
		reg := telemetry.NewRegistry()
		fsCfg := pfs.MiF(2)
		fault := rpc.UniformFaults(42, 0.02)
		fsCfg.RPC.Fault = &fault
		fsCfg.Metrics = reg
		cfg := DefaultMicroConfig(1)
		cfg.RegionBlocks = 256 // shrink the run; the guard is about replay
		cfg.Segments = 16
		if _, err := RunMicro(fsCfg, cfg); err != nil {
			t.Fatalf("micro run under fault injection: %v", err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var retries int64
		for _, s := range reg.Snapshot() {
			if s.Name == "rpc_retries" {
				retries += s.Value
			}
		}
		return buf.Bytes(), retries
	}
	first, retries := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Fatal("two identical faulty runs produced different telemetry JSON")
	}
	// The guard is vacuous if the injector never fired: prove the run
	// actually lost messages and retried.
	if retries == 0 {
		t.Fatal("fault injector never forced a retry during the guarded run")
	}
	if !strings.Contains(string(first), "rpc_faults") {
		t.Fatal("fault counters missing from telemetry JSON")
	}
}
