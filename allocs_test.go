package redbud_test

// Allocation ceilings for the hot benchmarks. The zero-alloc audit (PR 8)
// interned telemetry label keys and moved the extent/stripe lookups onto
// reusable scratch slices; an RPC is a client method whose server call runs
// in a closure that stays on the caller's stack, so a call allocates no
// message; the metadata path (PR 15) got dense directory state and one
// block copy per transaction. These ceilings keep those wins from silently
// eroding. Each case executes one full workload run — one arm of the fig6a,
// cache, failover, fig8 and fig9 experiments, on the catalogue's mounts, and
// the fig6a arm again with a registry and tracer attached — and fails if
// the allocation count exceeds its ceiling: measured + 5 % for the fig6a,
// cache and failover arms, whose counts are stable to a few allocations
// between runs, ~30 % above the measured cost for the rest.
// `go test -bench Experiment -benchmem` reports allocs/op per whole
// experiment for trend inspection.

import (
	"testing"

	"redbud/internal/experiment"
	"redbud/internal/mdfs"
	"redbud/internal/pfs"
	"redbud/internal/telemetry"
	"redbud/internal/workload"
)

func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cases := []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		// 3,368 measured (7,523 while every call built pooled request
		// structs).
		{"fig6a", 3_540, func() error {
			_, err := workload.RunMicro(experiment.Fig6FS(pfs.PolicyOnDemand), workload.DefaultMicroConfig(8))
			return err
		}},
		// The fig6a arm observed: a fresh registry and tracer, then the span
		// export. 4,599 measured (638,700 while every span was a heap object
		// formatting its attributes as it went).
		{"fig6a-traced", 4_830, func() error {
			cfg := experiment.Fig6FS(pfs.PolicyOnDemand)
			cfg.Metrics, cfg.Trace = telemetry.NewRegistry(), telemetry.NewTracer(nil)
			_, err := workload.RunMicro(cfg, workload.DefaultMicroConfig(8))
			cfg.Trace.Spans()
			return err
		}},
		// 5,755 measured (14,124 while every cached block was a heap object
		// and every eviction formatted an event detail nothing read).
		{"cache", 6_040, func() error {
			_, err := workload.RunCacheBench(pfs.MiF(5), workload.DefaultCacheBenchConfig())
			return err
		}},
		// 3,399 measured. The mount is traced: 23,950 while every span was a
		// heap object.
		{"failover", 3_570, func() error {
			_, err := workload.RunFailoverBench(pfs.MiF(6), workload.DefaultFailoverBenchConfig())
			return err
		}},
		{"fig8-normal", 1_850_000, func() error {
			_, err := workload.RunMetarates(workload.DefaultMetaratesConfig(mdfs.LayoutNormal))
			return err
		}},
		{"fig9", 2_300_000, func() error {
			_, err := workload.RunAging(workload.DefaultAgingConfig(mdfs.LayoutNormal, 0.8))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				if e := c.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.0f allocs/run (ceiling %.0f)", c.name, allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("%s allocates %.0f objects/run, ceiling %.0f — an allocation win regressed",
					c.name, allocs, c.ceiling)
			}
		})
	}
}
