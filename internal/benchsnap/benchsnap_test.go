package benchsnap

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"redbud/internal/experiment"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// syntheticRun drives a fixed, deterministic workload against a fresh
// registry/tracer pair and returns the collected experiment. It exercises
// every record section — counters, layer histograms, events — and a
// series, which the record leaves out.
func syntheticRun(name string) Experiment {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(nil)
	col := StartExperiment(reg, tracer)
	col.nowWall = func() time.Time { return time.Unix(0, 12345) }

	calls := reg.Counter("rpc_calls", telemetry.Labels{"layer": "rpc", "op": "obj-write"})
	lat := reg.Histogram("rpc_call_ns", telemetry.Labels{"layer": "rpc", "op": "obj-write"})
	disk := reg.Histogram("disk_service_ns", telemetry.Labels{"layer": "disk"})
	wr := reg.Series("pfs_write_blocks", telemetry.Labels{"layer": "pfs"}, 100, 64)
	for i := 0; i < 10; i++ {
		calls.Inc()
		lat.Observe(int64(1000 + 10*i))
		disk.Observe(int64(500 + i))
		wr.Add(tracer.Now(), 4)
		tracer.Advance(sim.Ns(50))
	}
	reg.Events().Emit(tracer.Now(), "rpc", "retry", "obj-write")
	return col.Finish(name)
}

// syntheticResults is one hand-built result table, as mifbench attaches
// to a record.
func syntheticResults() []experiment.Table {
	return []experiment.Table{{
		ID: "fig6a", Title: "Figure 6(a)", Label: "streams",
		Columns: []experiment.Column{
			{Name: "reservation", Unit: "MB/s", Decimals: 1},
			{Name: "on-demand", Unit: "MB/s", Decimals: 1},
			{Name: "od/res gain", Unit: "%", Signed: true},
		},
		Rows: []experiment.Row{
			{Label: "32", Values: []float64{49.75, 162.03125, 225.69}},
			{Label: "48", Values: []float64{43, 120.125, 179.36}},
		},
		Notes: []string{"paper: on-demand beats reservation"},
	}}
}

func TestCollectorRecord(t *testing.T) {
	exp := syntheticRun("fig6a")
	if exp.SimNs != 500 {
		t.Fatalf("sim_ns = %d, want 500", exp.SimNs)
	}
	if exp.Counters["rpc_calls{layer=rpc,op=obj-write}"] != 10 || len(exp.Counters) != 1 {
		t.Fatalf("counters = %+v", exp.Counters)
	}
	if len(exp.Layers) != 2 {
		t.Fatalf("layers = %+v, want rpc and disk", exp.Layers)
	}
	// Layer order follows the canonical stack: rpc above disk.
	if exp.Layers[0].Layer != "rpc" || exp.Layers[1].Layer != "disk" {
		t.Fatalf("layer order = %q, %q", exp.Layers[0].Layer, exp.Layers[1].Layer)
	}
	if exp.Layers[0].Count != 10 || exp.Layers[0].P50Ns != 1040 || exp.Layers[0].MaxNs != 1090 {
		t.Fatalf("rpc layer = %+v", exp.Layers[0])
	}
	if len(exp.Events) != 1 || exp.Events[0].Count != 1 {
		t.Fatalf("events = %+v", exp.Events)
	}
}

func TestDeterminismModuloWallClock(t *testing.T) {
	render := func() []byte {
		snap := New("det", 1)
		snap.Experiments = append(snap.Experiments, syntheticRun("fig6a"), syntheticRun("fig6b"))
		snap.StripVolatile()
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs rendered differently:\n%s\n---\n%s", a, b)
	}
}

func TestGoldenSchema(t *testing.T) {
	snap := New("golden", 0.5)
	rec := syntheticRun("fig6a")
	rec.Results = syntheticResults()
	snap.Experiments = append(snap.Experiments, rec)
	snap.StripVolatile()
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test ./internal/benchsnap -run Golden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot schema drifted from golden file.\ngot:\n%s\nwant:\n%s\n(if intentional, bump SchemaVersion and regenerate with -update)", buf.Bytes(), want)
	}

	// The golden document must round-trip through Read.
	rt, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Schema != SchemaVersion || len(rt.Experiments) != 1 || !reflect.DeepEqual(rt.Experiments[0].Results, syntheticResults()) {
		t.Fatalf("round-trip = %+v", rt)
	}
}

// previousSchema is a document of the format before result tables.
const previousSchema = `{"schema":"redbud-bench/2","name":"all","scale":1,"experiments":[{"name":"fig6a","wall_ns":1,"sim_ns":2}]}`

func TestReadRejectsWrongSchema(t *testing.T) {
	_, err := Read(strings.NewReader(previousSchema))
	if err == nil || !strings.Contains(err.Error(), `"redbud-bench/2"`) || !strings.Contains(err.Error(), `"`+SchemaVersion+`"`) {
		t.Fatalf("previous schema version must be rejected naming both versions, got %v", err)
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed input must be rejected")
	}
}

// TestReadRejectsMalformedResults: cells are addressed by table, row and
// column name, so a document that repeats one, or whose row is not as
// wide as its header, cannot be compared and is refused.
func TestReadRejectsMalformedResults(t *testing.T) {
	doc := func(results string) string {
		return `{"schema":"` + SchemaVersion + `","name":"t","scale":1,"experiments":[{"name":"fig6a","wall_ns":0,"sim_ns":1,"results":[` + results + `]}]}`
	}
	const table = `{"id":"fig6a","title":"t","label":"streams","columns":[{"name":"a"},{"name":"b"}],"rows":[{"label":"32","values":[1,2]}]}`
	for _, tc := range []struct{ name, results, wantErr string }{
		{"well-formed", table, ""},
		{"table twice", table + "," + table, `result table "fig6a" recorded twice`},
		{"row twice", strings.Replace(table, `{"label":"32","values":[1,2]}`, `{"label":"32","values":[1,2]},{"label":"32","values":[3,4]}`, 1), "result fig6a/32: row recorded twice"},
		{"column twice", strings.Replace(table, `{"name":"b"}`, `{"name":"a"}`, 1), `column "a" declared twice`},
		{"short row", strings.Replace(table, `[1,2]`, `[1]`, 1), "result fig6a/32: 1 values for 2 columns"},
	} {
		_, err := Read(strings.NewReader(doc(tc.results)))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzRead feeds Read arbitrary bytes: it must return a document or an
// error, never panic, and a document it accepts must compare equal to
// itself — a snapshot file is input from outside the program.
func FuzzRead(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden) // the current schema, with a results table
	f.Add([]byte(previousSchema))
	f.Add(golden[:len(golden)/2])
	f.Add(bytes.Replace(golden, []byte(`"label": "48"`), []byte(`"label": "32"`), 1))
	f.Add(bytes.Replace(golden, []byte(`"experiments": [`), []byte(`"experiments": [{"name": "fig6a"},`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		res, err := Compare(snap, snap)
		if err != nil || res.Failed() {
			t.Fatalf("accepted document differs from itself: err=%v %+v", err, res)
		}
		if err := res.WriteText(io.Discard, true); err != nil {
			t.Fatal(err)
		}
	})
}
