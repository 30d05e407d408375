package redbud_test

// Allocation ceilings for the hot benchmarks. The zero-alloc audit (PR 8)
// interned telemetry label keys and moved the extent/stripe lookups onto
// reusable scratch slices; an RPC is a client method whose server call runs
// in a closure that stays on the caller's stack, so a call allocates no
// message; the metadata path (PR 15) got dense directory state and one
// block copy per transaction, and then a block store that recycles its
// buffers and encodes inode records in place, and an elevator that keeps
// its scheduling scratch. These ceilings keep those wins from silently
// eroding. Each case executes one full workload run — one arm of the fig6a,
// cache, failover, fig8 and fig9 experiments, on the catalogue's mounts, and
// the fig6a arm again with a registry and tracer attached — and fails if
// the allocation count exceeds its ceiling: measured + 5 %, every count
// being stable to a few allocations between runs. The fig6a and fig8-normal
// arms also have a ceiling on the bytes they allocate, measured + 5 %, so a
// structure that grows by doubling and copying, or a block buffer made
// where one could be recycled, cannot come back unnoticed.
// `go test -bench Experiment -benchmem` reports allocs/op per whole
// experiment for trend inspection.

import (
	"runtime"
	"testing"

	"redbud/internal/experiment"
	"redbud/internal/mdfs"
	"redbud/internal/pfs"
	"redbud/internal/telemetry"
	"redbud/internal/workload"
)

func TestAllocCeilings(t *testing.T) {
	cases := []struct {
		name    string
		ceiling float64
		bytes   float64 // ceiling on the bytes one run allocates; 0 = none
		run     func() error
	}{
		// 822 measured, 7.44 MB (843 and 15.4 MB while the OST tag store
		// was one slice that doubled and copied; 3,368 while every
		// elevator batch allocated its dispatch list, 7,523 while every
		// call built pooled request structs).
		{"fig6a", 864, 7_820_000, func() error {
			_, err := workload.RunMicro(experiment.Fig6FS(pfs.PolicyOnDemand), workload.DefaultMicroConfig(8))
			return err
		}},
		// The fig6a arm observed: a fresh registry and tracer, then the span
		// export. 1,974 measured (2,016 with the doubling tag store, 2,083
		// while every write-back asked the servers for its extent counts
		// and each reply drew an rpc span, 4,599 with an allocating
		// elevator, 638,700 while every span was a heap object formatting
		// its attributes as it went).
		{"fig6a-traced", 2_073, 0, func() error {
			cfg := experiment.Fig6FS(pfs.PolicyOnDemand)
			cfg.Metrics, cfg.Trace = telemetry.NewRegistry(), telemetry.NewTracer(nil)
			_, err := workload.RunMicro(cfg, workload.DefaultMicroConfig(8))
			cfg.Trace.Spans()
			return err
		}},
		// 4,722 measured (4,971 with the doubling tag store, 5,755 with an
		// allocating elevator, 14,124 while every cached block was a heap
		// object and every eviction formatted an event detail nothing
		// read).
		{"cache", 4_959, 0, func() error {
			_, err := workload.RunCacheBench(pfs.MiF(5), workload.DefaultCacheBenchConfig())
			return err
		}},
		// 2,842 measured (2,916 with the doubling tag store, 3,399 with an
		// allocating elevator). The mount is traced: 23,950 while every
		// span was a heap object.
		{"failover", 2_985, 0, func() error {
			_, err := workload.RunFailoverBench(pfs.MiF(6), workload.DefaultFailoverBenchConfig())
			return err
		}},
		// 14,852 measured, 42.7 MB: a commit frees the dirty buffer it
		// supersedes (15,749 and 46.6 MB while it waited for the next
		// checkpoint). The driver formats each file name once, not once
		// per op and client (298,406 while it did; 1.41 M while every block
		// a transaction touched got a new buffer and every inode touch a
		// new record and inode).
		{"fig8-normal", 15_595, 44_855_000, func() error {
			_, err := workload.RunMetarates(workload.DefaultMetaratesConfig(mdfs.LayoutNormal))
			return err
		}},
		// 65,891 measured: every churn file's setlayout builds its extents
		// in one reused scratch slice, and its name costs one string
		// (103,542 while fmt.Sprintf boxed the number too; 143,115 while
		// each file allocated its own extents; 1.76 M before the recycling
		// store, and spill chains that built their block lists afresh on
		// every write).
		{"fig9", 69_190, 0, func() error {
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
			if c.bytes == 0 {
				return
			}
			b := bytesPerRun(func() { err = c.run() })
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.0f bytes/run (ceiling %.0f)", c.name, b, c.bytes)
			if b > c.bytes {
				t.Errorf("%s allocates %.0f bytes/run, ceiling %.0f — an allocation win regressed",
					c.name, b, c.bytes)
			}
		})
	}
}

// bytesPerRun returns the bytes one call of f allocates, measured like
// testing.AllocsPerRun counts objects: on one processor, after a warm-up
// call.
func bytesPerRun(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}
