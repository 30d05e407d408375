package redbud_test

// Allocation ceilings for the hot benchmarks. The zero-alloc audit (PR 8)
// interned telemetry label keys, pooled RPC request messages, and moved
// the extent/stripe lookups onto reusable scratch slices; the metadata path
// (PR 15) got dense directory state and one block copy per transaction.
// These ceilings keep those wins from silently eroding. Each case executes
// one full workload run — one arm of the fig6a, cache, failover, fig8 and
// fig9 experiments, on the catalogue's mounts — and fails if the
// allocation count exceeds a ceiling set ~30% above the measured cost
// (headroom for GC timing flushing the sync.Pools mid-run; failover's is
// tighter, see there).
// `go test -bench Experiment -benchmem` reports allocs/op per whole
// experiment for trend inspection.

import (
	"testing"

	"redbud/internal/experiment"
	"redbud/internal/mdfs"
	"redbud/internal/pfs"
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
		{"fig6a", 10_500, func() error {
			_, err := workload.RunMicro(experiment.Fig6FS(pfs.PolicyOnDemand), workload.DefaultMicroConfig(8))
			return err
		}},
		{"cache", 20_000, func() error {
			_, err := workload.RunCacheBench(pfs.MiF(5), workload.DefaultCacheBenchConfig())
			return err
		}},
		// 23,969 measured (24,446 while the replicated write and read built a
		// piece list, and the read a load closure, per operation) + 5 %; the
		// count moves by under 60 between runs.
		{"failover", 25_170, func() error {
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
