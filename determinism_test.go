package redbud_test

// Determinism guards. A mount is single-threaded, so the same seed giving
// the same bytes is a property of the code (TestInternalIsSingleThreaded
// keeps it one); these tests pin its visible half — every telemetry metric
// of a repeated run, byte for byte, with and without the seeded RPC fault
// injector.

import (
	"bytes"
	"testing"

	"redbud/internal/experiment"
	"redbud/internal/pfs"
	"redbud/internal/rpc"
	"redbud/internal/telemetry"
	"redbud/internal/workload"
)

// microSnapshot runs the fig6a micro-benchmark with a registry attached
// and returns the registry's JSON document — the same artifact the
// `make smoke` -telemetry guard compares.
func microSnapshot(t *testing.T, mutate func(*pfs.Config)) []byte {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := experiment.Fig6FS(pfs.PolicyOnDemand)
	cfg.Metrics = reg
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := workload.RunMicro(cfg, workload.DefaultMicroConfig(8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTelemetryIdenticalRepeated runs the workload twice: the registry
// documents must be byte-identical.
func TestTelemetryIdenticalRepeated(t *testing.T) {
	a := microSnapshot(t, nil)
	b := microSnapshot(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry diverges between identical runs: %d bytes vs %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty telemetry snapshot: the workload did not instrument")
	}
}

// TestFaultInjectionDeterministic seeds the RPC fault injector — every
// fault decision is one draw from a shared sequential RNG — and checks the
// full registry document (fault events, retry counters, replay hits
// included) replays byte-identically.
func TestFaultInjectionDeterministic(t *testing.T) {
	faulty := func(cfg *pfs.Config) {
		cfg.RPC.Fault = &rpc.FaultConfig{
			Seed: 42,
			Data: rpc.FaultRates{Drop: 0.02, RespDrop: 0.02, Error: 0.01},
			Meta: rpc.FaultRates{Drop: 0.01},
		}
	}
	a := microSnapshot(t, faulty)
	b := microSnapshot(t, faulty)
	if !bytes.Equal(a, b) {
		t.Fatal("fault-injected telemetry diverges between identical runs")
	}
}
