package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testScale keeps every workload to a fraction of a second.
const testScale = 0.02

func testOptions(workload string, seed uint64) options {
	return options{workload: workload, seed: seed, seconds: 0.001, minIters: 1, scale: testScale}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		metricDef
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the benchmark emits, with the same units and directions, and
// that it stays inside the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.metricDef != m {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the benchmark %+v", i, got.metricDef, m)
		}
		if want, ok := endToEndBounds[m.Name]; !ok || got.Bound == nil || *got.Bound != want {
			t.Errorf("end_to_end %s: BENCHMARK.json has bound %v, the benchmark %v", m.Name, got.Bound, want)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
			for _, o := range b.EndToEnd {
				if *o.Bound > *got.Bound {
					t.Errorf("setup_s has bound %v, smaller than %s's %v: the contract gives set-up the largest", *got.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != m {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, b.PerLayer[i], m)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestEveryWorkloadRuns executes both passes of every workload at a small
// scale with one iteration: every workload and every layer replay runs, the
// emitted metric names are exactly the declared ones, and the metrics each
// workload exists to populate are populated.
func TestEveryWorkloadRuns(t *testing.T) {
	populated := map[string][]string{
		"data_shared":    {"pfs.write.host_us", "pfs.mp_slowdown", "disk.sim_self_s"},
		"data_observed":  {"telemetry.observer_cost_ratio", "telemetry.spans"},
		"data_resilient": {"pfs.crash_repair.host_us", "rpc.retries", "cache.hit_ratio", "replica.repair_blocks"},
		"meta_bigdir":    {"mds.create.host_us", "mdfs.create.host_us", "mdfs.create_growth", "journal.commits"},
		"meta_aged":      {"mds.rename.host_us", "mdfs.calls"},
		"fsck_aged":      {"mdfs.loadimage.host_ms", "fsck.workers1.host_ms", "fsck.parallel_speedup", "fsck.blocks_scanned"},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			r, err := run(testOptions(w.Name, 1), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("untraced: %d of %d failed: %v", r.failed, r.attempted, r.problems)
			}
			checkNames(t, r.metrics, endToEnd)
			for _, m := range endToEnd {
				if r.metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, r.metrics[m.Name])
				}
			}

			o := testOptions(w.Name, 1)
			o.trace = true
			o.traceOut = filepath.Join(t.TempDir(), "spans.json")
			r, err = run(o, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("traced: %d of %d failed: %v", r.failed, r.attempted, r.problems)
			}
			checkNames(t, r.metrics, perLayer)
			for _, name := range append(populated[w.Name], "ost.write.host_us", "iosched.run.host_ns_per_req",
				"disk.access.host_ns", "alloc.allocnear.host_ns", "extent.insert.host_ns", "extent.merges",
				"journal.commit.host_us", "telemetry.span.host_ns", "telemetry.export.host_ms", "host.trace_overhead_ratio") {
				if r.metrics[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want > 0", name, r.metrics[name])
				}
			}
			raw, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Names []string  `json:"names"`
				Spans [][]int64 `json:"spans"`
			}
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(file.Names) != int(numSpanNames) || len(file.Spans) < 3 || file.Spans[0][1] != -1 {
				t.Errorf("span file: %d names, %d spans, first %v", len(file.Names), len(file.Spans), file.Spans[0])
			}
		})
	}
}

func checkNames(t *testing.T, got map[string]float64, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(want))
	}
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("metric %s was not emitted", m.Name)
		}
	}
}

// TestSeedContract checks what a seed may and may not change: the same seed
// gives the same op list and the same simulated counts; another seed gives
// another op list of exactly the same length.
func TestSeedContract(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var first *result
			for _, seed := range []uint64{1, 1, 2, 3} {
				r, err := run(testOptions(w.Name, seed), time.Now())
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case first == nil:
					first = r
				case seed == 1:
					if r.opHash != first.opHash || r.sim != first.sim {
						t.Errorf("seed 1 twice: op list %016x then %016x, counts %+v then %+v", first.opHash, r.opHash, first.sim, r.sim)
					}
				default:
					if r.opsPerIter != first.opsPerIter {
						t.Errorf("seed %d: %d ops per iteration, seed 1 has %d", seed, r.opsPerIter, first.opsPerIter)
					}
					if r.opHash == first.opHash {
						t.Errorf("seed %d generated the same op list as seed 1", seed)
					}
				}
			}
		})
	}
}

// TestObservedRunsSharedOpList checks the assumption the observer's cost
// rests on: for one seed data_observed applies exactly data_shared's ops.
func TestObservedRunsSharedOpList(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		shared, observed := newDataShared(seed, testScale, false), newDataShared(seed, testScale, true)
		if shared.opHash() != observed.opHash() || shared.opsPerIter() != observed.opsPerIter() {
			t.Errorf("seed %d: data_shared has op list %016x of %d ops, data_observed %016x of %d",
				seed, shared.opHash(), shared.opsPerIter(), observed.opHash(), observed.opsPerIter())
		}
	}
}

// TestCheckerCatchesWrongExpectation plants a wrong expectation in the
// driver and expects the checker to count it and the command to fail.
func TestCheckerCatchesWrongExpectation(t *testing.T) {
	for _, c := range []struct{ workload, kind string }{
		{"data_shared", "readback"}, // read-back of an unwritten block
		{"fsck_aged", "cycle"},      // mdfs.InjectCorruption("cycle") on the image
	} {
		o := testOptions(c.workload, 1)
		o.breakCheck = c.kind
		r, err := run(o, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if r.failed == 0 || r.metrics["ok_op_share"] >= 1 {
			t.Errorf("%s with -break %s: failed=%d ok_op_share=%v, want a counted failure", c.workload, c.kind, r.failed, r.metrics["ok_op_share"])
		}
		if err := runOne(o, time.Now()); err == nil {
			t.Errorf("%s with -break %s: the command would exit 0", c.workload, c.kind)
		}
	}
	o := testOptions("meta_aged", 1)
	o.breakCheck = "cycle"
	if _, err := run(o, time.Now()); err == nil {
		t.Error("-break cycle was accepted on a workload it does not apply to")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{5, 4, 3, 2, 1})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// iteration [0,100] > instance [10,90] > write [20,30], write [40,70]
	spans := []span{
		{Parent: noSpan, Name: spIteration, Start: 0, End: 100},
		{Parent: 0, Name: spInstance, Start: 10, End: 90},
		{Parent: 1, Name: spPfsWrite, Op: 1, Start: 20, End: 30},
		{Parent: 1, Name: spPfsWrite, Op: 2, Start: 40, End: 70},
	}
	var tot spanTotals
	tot.add(spans)
	if tot.selfNs[spIteration] != 20 || tot.selfNs[spInstance] != 40 || tot.selfNs[spPfsWrite] != 40 {
		t.Errorf("self times: iteration %d instance %d write %d, want 20 40 40",
			tot.selfNs[spIteration], tot.selfNs[spInstance], tot.selfNs[spPfsWrite])
	}
	if got := tot.meanNs(spPfsWrite); got != 20 {
		t.Errorf("mean write = %v, want 20", got)
	}
	if got := tot.layerCalls("pfs."); got != 2 {
		t.Errorf("pfs calls = %d, want 2", got)
	}
}
