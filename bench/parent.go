package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childRun is what one child process reported.
type childRun struct {
	info runInfo
	out  runOutput
}

// child runs one pass of one workload in a process of its own, so that
// its memory and setup_s are the workload's alone. A child that fails its
// checks still reports; the caller sees it in out.Correct.
func child(o options, workload string, trace bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"-workload", workload, "-trace", t,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
	}
	if o.breakCheck != "" {
		args = append(args, "-break", o.breakCheck)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()

	var c childRun
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, infoPrefix) {
			if err := json.Unmarshal([]byte(line[len(infoPrefix):]), &c.info); err != nil {
				return nil, fmt.Errorf("%s: info line: %w", workload, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &c.out); err != nil || c.out.Metrics == nil {
		return nil, fmt.Errorf("%s: no result (child: %v)", workload, runErr)
	}
	return &c, nil
}

// workloadReport is one workload's part of the JSON document.
type workloadReport struct {
	OpsPerIter   int64                  `json:"ops_per_iter"`
	OpHash       string                 `json:"op_hash"`
	Iterations   int                    `json:"iterations"`
	Correct      bool                   `json:"correct"`
	OpsAttempted int64                  `json:"ops_attempted"`
	Failed       int64                  `json:"failed"`
	Problems     []string               `json:"problems,omitempty"`
	SpanFile     string                 `json:"span_file,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

// report is the JSON document of a run over every workload.
type report struct {
	Format    string                     `json:"format"`
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Scale     float64                    `json:"scale"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runAll runs every workload, each pass in a child of its own, and prints
// one table per pass and one JSON document.
func runAll(o options, trace string) error {
	rep := report{Format: "redbud-bench/1", Seed: o.seed, Scale: o.scale, Workloads: make(map[string]*workloadReport)}
	ok := true
	for _, traced := range []bool{false, true} {
		if (traced && trace == "0") || (!traced && trace == "1") {
			continue
		}
		for _, name := range workloadNames() {
			t0 := time.Now()
			c, err := child(o, name, traced)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s trace=%v: %d iterations in %.1fs\n", name, traced, c.info.Iterations, time.Since(t0).Seconds())
			rep.Host = c.info.Host
			w := rep.Workloads[name]
			if w == nil {
				w = &workloadReport{OpsPerIter: c.info.OpsPerIter, OpHash: c.info.OpHash, Correct: true}
				rep.Workloads[name] = w
			}
			w.Correct = w.Correct && c.out.Correct
			w.OpsAttempted += c.out.Attempted
			w.Failed += c.out.Failed
			w.Problems = append(w.Problems, c.info.Problems...)
			if traced {
				w.PerLayer, w.SpanFile = c.out.Metrics, c.info.SpanFile
			} else {
				w.EndToEnd, w.Iterations = c.out.Metrics, c.info.Iterations
			}
			ok = ok && c.out.Correct
		}
	}

	fmt.Printf("redbud bench: seed=%d scale=%g\nhost (children run at GOMAXPROCS=1): %s\n", o.seed, o.scale, rep.Host)
	fmt.Println("simulated figures are checked for the paper's shapes, not its magnitudes: no error figure is given")
	names := workloadNames()
	fmt.Printf("\n%-34s %-6s", "", "")
	for _, n := range names {
		fmt.Printf(" %14s", n)
	}
	fmt.Printf("\n%-34s %-6s", "ops_per_iter", "count")
	for _, n := range names {
		fmt.Printf(" %14d", rep.Workloads[n].OpsPerIter)
	}
	fmt.Printf("\n%-34s %-6s", "ops_attempted", "count")
	for _, n := range names {
		fmt.Printf(" %14d", rep.Workloads[n].OpsAttempted)
	}
	fmt.Println()
	printRows := func(title string, defs []metricDef, pick func(*workloadReport) map[string]metricValue) {
		if pick(rep.Workloads[names[0]]) == nil {
			return
		}
		fmt.Printf("\n%s\n", title)
		for _, d := range defs {
			fmt.Printf("%-34s %-6s", d.Name, d.Unit)
			for _, n := range names {
				fmt.Printf(" %14.6g", pick(rep.Workloads[n])[d.Name].Value)
			}
			fmt.Println()
		}
	}
	printRows("end to end (untraced pass)", endToEnd, func(w *workloadReport) map[string]metricValue { return w.EndToEnd })
	printRows("per layer (traced pass)", perLayer, func(w *workloadReport) map[string]metricValue { return w.PerLayer })
	for _, n := range names {
		for _, p := range rep.Workloads[n].Problems {
			fmt.Printf("FAILED %s: %s\n", n, p)
		}
	}
	fmt.Println()
	doc, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", doc)
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// specPath is the benchmark definition, relative to the checkout's root,
// where run.sh starts the binary.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the A/A check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactPerSeed are the metrics that depend on the inputs alone: two runs
// with one seed must report the same value to the last digit, on any host
// and, for a change meant only to speed the simulator up, on both commits.
var exactPerSeed = map[string]bool{
	"sim_s": true, "sim_positionings": true, "sim_disk_requests": true, "sim_extents": true, "ok_op_share": true,
}

// runAA runs two alternating sets of n untraced runs of every workload of
// the same binary, each run of a set with another seed (the same seeds in
// both sets), and judges them the way the benchmark contract does: within
// each set the spread of a metric (interquartile range over median) must
// stay within its bound, except for setup_s, and the second set's median
// may not be worse than the first's by more than the bound. The exactPerSeed
// metrics must besides agree exactly between the two runs of every seed.
func runAA(o options, n int) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	names := workloadNames()
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for _, w := range names {
			values[s][w] = make(map[string][]float64)
		}
	}
	var host hostInfo
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, w := range names {
				ro := o
				ro.seed = o.seed + uint64(i)
				c, err := child(ro, w, false)
				if err != nil {
					return err
				}
				if !c.out.Correct {
					return fmt.Errorf("%s seed %d: correctness checks failed: %v", w, ro.seed, c.info.Problems)
				}
				host = c.info.Host
				for name, v := range c.out.Metrics {
					values[set][w][name] = append(values[set][w][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d/%d %s\n", 'A'+set, i+1, n, w)
			}
		}
	}

	fmt.Printf("A/A check: two alternating sets of %d runs, seeds %d..%d, scale %g\nhost (children run at GOMAXPROCS=1): %s\n\n",
		n, o.seed, o.seed+uint64(n)-1, o.scale, host)
	fmt.Printf("%-15s %-19s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "IQR/A", "IQR/B", "bound", "verdict")
	failed := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			spread := func(vs []float64, med float64) float64 {
				q1, q3 := quartiles(vs)
				return ratio(q3-q1, med)
			}
			sa, sb := spread(a, ma), spread(b, mb)
			worse := ratio(mb-ma, ma)
			if m.Better == higher {
				worse = -worse
			}
			verdict := "PASS"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
			}
			if exactPerSeed[m.Name] {
				verdict += " exact"
				for i := range a {
					if a[i] != b[i] {
						verdict = fmt.Sprintf("FAIL seed %d: %v then %v", o.seed+uint64(i), a[i], b[i])
						break
					}
				}
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failed++
			}
			fmt.Printf("%-15s %-19s %14.6g %14.6g %7.2f%% %7.2f%% %6.1f%%  %s\n", w, m.Name, ma, mb, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A check: %d of %d workload x metric pairs failed", failed, len(names)*len(spec.EndToEnd))
	}
	fmt.Printf("\nA/A check: all %d workload x metric pairs pass\n", len(names)*len(spec.EndToEnd))
	return nil
}
