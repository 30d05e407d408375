package redbud_test

// The host-cost hook: one sub-benchmark per catalogue entry, running the
// same function `mifbench <name>` runs at full scale, so
// `go test -bench 'Experiment/fig9' -benchmem -cpuprofile cpu.out` says
// what an experiment costs the host. The simulated numbers are not
// reported here: BENCH.json records them and tier-1 pins them.

import (
	"testing"

	"redbud/internal/experiment"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiment.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiment.Env{Scale: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
