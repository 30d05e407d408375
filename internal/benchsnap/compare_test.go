package benchsnap

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"redbud/internal/experiment"
	"redbud/internal/telemetry"
)

func snapWith(counters map[string]int64, wallNs int64, simNs int64) *Snapshot {
	return &Snapshot{
		Schema: SchemaVersion,
		Name:   "t",
		Scale:  1,
		Experiments: []Experiment{{
			Name:     "fig6a",
			WallNs:   wallNs,
			SimNs:    simNs,
			Counters: counters,
		}},
	}
}

func findDelta(r Result, metric string) *Delta {
	for i := range r.Deltas {
		if r.Deltas[i].Metric == metric {
			return &r.Deltas[i]
		}
	}
	return nil
}

func TestCompareIdenticalRunsZeroDrift(t *testing.T) {
	a := snapWith(map[string]int64{"disk_positionings{layer=disk}": 100}, 111, 5000)
	b := snapWith(map[string]int64{"disk_positionings{layer=disk}": 100}, 999, 5000)
	res, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 0 || res.Failed() {
		t.Fatalf("identical sim content must show zero drift: %+v", res)
	}
	// The wall-clock difference is reported beside the comparison, not in it.
	if w := WallDeltas(a, b); len(w) != 1 || w[0].OldNs != 111 || w[0].NewNs != 999 {
		t.Fatalf("wall deltas = %+v", w)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "zero simulated-metric drift") {
		t.Fatalf("report = %q", buf.String())
	}
}

// TestCompareExact pins the gate's one rule: any simulated metric that
// moves, up or down, fails and is named; nothing volatile does.
func TestCompareExact(t *testing.T) {
	base := func() *Snapshot {
		s := snapWith(map[string]int64{"rpc_calls{op=obj-write}": 1000}, 111, 5000)
		s.CreatedWall = "2026-01-01T00:00:00Z"
		s.Host = &Host{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2}
		s.Experiments[0].Layers = []LayerLatency{{Layer: "disk", Count: 10, P50Ns: 400, P99Ns: 1000}}
		s.Experiments[0].Events = []telemetry.EventCount{{Layer: "rpc", Kind: "retry", Count: 3}}
		s.Experiments[0].Results = syntheticResults()
		return s
	}
	results := func(s *Snapshot) *experiment.Table { return &s.Experiments[0].Results[0] }
	for _, tc := range []struct {
		name   string
		change func(s *Snapshot)
		// names is what the report must mention; empty means no failure.
		names string
	}{
		{"counter +1", func(s *Snapshot) { s.Experiments[0].Counters["rpc_calls{op=obj-write}"]++ }, "counter/rpc_calls{op=obj-write}"},
		{"counter -1", func(s *Snapshot) { s.Experiments[0].Counters["rpc_calls{op=obj-write}"]-- }, "counter/rpc_calls{op=obj-write}"},
		{"counter appears at zero", func(s *Snapshot) { s.Experiments[0].Counters["rpc_timeouts{}"] = 0 }, "counter/rpc_timeouts{}"},
		{"sim_ns down", func(s *Snapshot) { s.Experiments[0].SimNs-- }, "sim_ns"},
		{"layer percentile up", func(s *Snapshot) { s.Experiments[0].Layers[0].P99Ns *= 2 }, "layer/disk/p99_ns"},
		{"layer percentile down", func(s *Snapshot) { s.Experiments[0].Layers[0].P50Ns /= 2 }, "layer/disk/p50_ns"},
		{"event total", func(s *Snapshot) { s.Experiments[0].Events[0].Count++ }, "event/rpc/retry"},
		{"result cell, last ulp", func(s *Snapshot) {
			v := &results(s).Rows[0].Values[1]
			*v = math.Nextafter(*v, math.Inf(1))
		}, "result/fig6a/32/on-demand"},
		{"result row on one side only", func(s *Snapshot) { results(s).Rows = results(s).Rows[:1] }, "result/fig6a/48/reservation"},
		{"result column on one side only", func(s *Snapshot) {
			t := results(s)
			t.Columns = t.Columns[:2]
			for i := range t.Rows {
				t.Rows[i].Values = t.Rows[i].Values[:2]
			}
		}, "result/fig6a/32/od/res gain"},
		{"result table on one side only", func(s *Snapshot) { s.Experiments[0].Results = nil }, "result/fig6a/48/on-demand"},
		{"result rows reordered", func(s *Snapshot) {
			r := results(s).Rows
			r[0], r[1] = r[1], r[0]
		}, ""},
		{"result title and notes reworded", func(s *Snapshot) { results(s).Title, results(s).Notes = "reworded", nil }, ""},
		{"experiment on the new side only", func(s *Snapshot) {
			s.Experiments = append(s.Experiments, Experiment{Name: "fig7"})
		}, "fig7 (new only)"},
		{"experiment on the old side only", func(s *Snapshot) { s.Experiments = nil }, "fig6a (old only)"},
		{"wall_ns", func(s *Snapshot) { s.Experiments[0].WallNs *= 3 }, ""},
		{"created_wall", func(s *Snapshot) { s.CreatedWall = "2027-01-01T00:00:00Z" }, ""},
		{"host", func(s *Snapshot) { s.Host = &Host{GoVersion: "go1.25.0", GOMAXPROCS: 64, NumCPU: 64} }, ""},
		{"host absent", func(s *Snapshot) { s.Host = nil }, ""},
	} {
		old, cur := base(), base()
		tc.change(cur)
		res, err := Compare(old, cur)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got, want := res.Failed(), tc.names != ""; got != want {
			t.Errorf("%s: Failed = %v, want %v (%+v)", tc.name, got, want, res)
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf, false); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tc.names) {
			t.Errorf("%s: report does not name %q:\n%s", tc.name, tc.names, buf.String())
		}
		verdict := "; ok"
		if tc.names != "" {
			verdict = "; FAIL"
		}
		if !strings.Contains(buf.String(), verdict) {
			t.Errorf("%s: report lacks verdict %q:\n%s", tc.name, verdict, buf.String())
		}
	}
}

func TestCompareZeroOldValue(t *testing.T) {
	a := snapWith(map[string]int64{}, 0, 0)
	b := snapWith(map[string]int64{"rpc_timeouts{op=obj-write}": 3}, 0, 0)
	res, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d := findDelta(res, "counter/rpc_timeouts{op=obj-write}")
	if d == nil || d.Frac != 1 || !res.Failed() {
		t.Fatalf("appearing metric = %+v", d)
	}
}

func TestCompareMissingExperiments(t *testing.T) {
	a := snapWith(nil, 0, 0)
	b := &Snapshot{Schema: SchemaVersion, Scale: 1, Experiments: []Experiment{{Name: "fig7"}}}
	res, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 2 || !res.Failed() {
		t.Fatalf("missing = %v, want both sides reported and the comparison failed", res.Missing)
	}
}

// TestRefusesIncomparable: inputs the comparison would silently get wrong
// are errors, not drift reports.
func TestRefusesIncomparable(t *testing.T) {
	doc := func(scale string, names ...string) string {
		var exps []string
		for _, n := range names {
			exps = append(exps, `{"name":"`+n+`","wall_ns":0,"sim_ns":1}`)
		}
		return `{"schema":"` + SchemaVersion + `","name":"t","scale":` + scale + `,"experiments":[` + strings.Join(exps, ",") + `]}`
	}
	for _, tc := range []struct {
		name     string
		old, new string
		wantErr  string
	}{
		{"same scale, distinct names", doc("1", "fig6a", "fig6b"), doc("1", "fig6a", "fig6b"), ""},
		{"duplicate experiment name", doc("1", "fig6a", "fig6a"), doc("1", "fig6a"), `experiment "fig6a" recorded twice`},
		{"different scale", doc("1", "fig6a"), doc("0.25", "fig6a"), "snapshots taken at different -scale (1 vs 0.25)"},
	} {
		err := func() error {
			old, err := Read(strings.NewReader(tc.old))
			if err != nil {
				return err
			}
			cur, err := Read(strings.NewReader(tc.new))
			if err != nil {
				return err
			}
			_, err = Compare(old, cur)
			return err
		}()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
