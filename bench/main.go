// Command bench is the Redbud benchmark: six seeded workloads measured on
// two clocks, host time (what the simulator costs) and simulated time (the
// model's output), with a traced pass that attributes host time to the
// repository's layers from outside. README.md documents the metrics.
//
// The contract form runs one pass of one workload in this process and
// prints one JSON object as its last line:
//
//	bench --workload data_shared --seed 1 --seconds 8 --trace 0
//
// Without -workload the command runs every workload, each pass in a child
// process of its own, and prints one table and one JSON document; -aa N
// runs the A/A check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	start := time.Now()
	o := options{minIters: minTimedIters}
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload in this process (default: every workload, in child processes)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure until this many seconds of iterations have run")
	flag.Float64Var(&o.scale, "scale", 1, "scale the workload sizes (tests use 0.02)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of the traced pass (default .bench_build/spans/<workload>.json)")
	flag.StringVar(&o.breakCheck, "break", "", "plant a wrong expectation to test the checker: readback (data workloads) or cycle (fsck_aged)")
	trace := flag.String("trace", "", "0: untraced pass, 1: traced pass (default: untraced for one workload, both for all)")
	aa := flag.Int("aa", 0, "A/A check: two alternating sets of this many untraced runs of every workload")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "" && *trace != "0" && *trace != "1") || o.seconds <= 0 || o.scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *aa > 0:
		err = runAA(o, *aa)
	case o.workload == "":
		err = runAll(o, *trace)
	default:
		o.trace = *trace == "1"
		if o.trace && o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "spans", o.workload+".json")
		}
		err = runOne(o, start)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// commit is set by run.sh at link time; a plain `go build` inside a git
// checkout leaves it to the toolchain's VCS stamp.
var commit = "unknown"

// hostInfo is the header every report carries: a host-time number means
// nothing without the host it was taken on.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     commit,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok && h.Commit == "unknown" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s %s kernel=%s commit=%s",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Platform, h.Kernel, h.Commit)
}

// metricValue is one reported value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a single run prints: exactly these keys.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is the line before it: what a table needs beyond the metrics.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Scale      float64   `json:"scale"`
	Trace      bool      `json:"trace"`
	Host       hostInfo  `json:"host"`
	OpsPerIter int64     `json:"ops_per_iter"`
	OpHash     string    `json:"op_hash"`
	Iterations int       `json:"iterations"`
	WallQ1Ms   float64   `json:"iter_wall_q1_ms"`
	WallQ3Ms   float64   `json:"iter_wall_q3_ms"`
	SetupRawS  float64   `json:"setup_raw_s"` // as the clock read it, before the host-speed factor
	HostSpeed  float64   `json:"host_speed"`  // reference probe time / this run's: below 1 on a slow host
	ProbesMs   []float64 `json:"probes_ms,omitempty"`
	PeakRSSMB  float64   `json:"peak_rss_mb"` // ru_maxrss: reported, not gated (see README.md)
	SpanFile   string    `json:"span_file,omitempty"`
	Problems   []string  `json:"problems,omitempty"`
	WallsMs    []float64 `json:"iter_walls_ms"`
}

const infoPrefix = "info "

// runOne runs one pass of one workload in this process and prints its
// report; the last line is the contract's JSON object.
func runOne(o options, start time.Time) error {
	r, err := run(o, start)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	host := readHost()
	fmt.Printf("redbud bench: %s seed=%d scale=%g trace=%v\n", o.workload, o.seed, o.scale, o.trace)
	fmt.Printf("host: %s\n", host)
	fmt.Printf("ops_per_iter=%d op_hash=%016x iterations=%d ops_attempted=%d failed=%d\n",
		r.opsPerIter, r.opHash, r.iterations, r.attempted, r.failed)
	fmt.Println("simulated figures are checked for the paper's shapes, not its magnitudes: no error figure is given")
	out := runOutput{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	info := runInfo{
		Workload: o.workload, Seed: o.seed, Scale: o.scale, Trace: o.trace, Host: host,
		OpsPerIter: r.opsPerIter, OpHash: fmt.Sprintf("%016x", r.opHash), Iterations: r.iterations,
		SetupRawS: r.setup.Seconds(), HostSpeed: r.hostSpeed, ProbesMs: r.probesMs,
		PeakRSSMB: peakRSSMB(), SpanFile: r.spanFile, Problems: r.problems,
	}
	for _, s := range r.samples {
		info.WallsMs = append(info.WallsMs, float64(s.wall)/1e6)
	}
	info.WallQ1Ms, info.WallQ3Ms = quartiles(info.WallsMs)
	fmt.Printf("not gated: peak_rss_mb=%.1f (ru_maxrss); as the clock read them: setup %.3f s, iteration wall q1 %.3f median %.3f q3 %.3f ms\n",
		info.PeakRSSMB, info.SetupRawS, info.WallQ1Ms, median(append([]float64(nil), info.WallsMs...)), info.WallQ3Ms)
	if !o.trace {
		fmt.Printf("host speed %.4f of the reference (probe median %.3f ms over %d probes, reference %.1f ms): setup_s and iter_wall_ms are the clock's readings times this\n",
			info.HostSpeed, probeRefMs/info.HostSpeed, len(info.ProbesMs), probeRefMs)
	}
	if err := printJSONLine(infoPrefix, info); err != nil {
		return err
	}
	if err := printJSONLine("", out); err != nil {
		return err
	}
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d calls and checks failed", o.workload, r.failed, r.attempted)
	}
	return nil
}

func printJSONLine(prefix string, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, b)
	return err
}

// workloadNames lists the workloads in their table order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
