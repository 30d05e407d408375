package benchsnap

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

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
	snap.Experiments = append(snap.Experiments, syntheticRun("fig6a"))
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
	if rt.Schema != SchemaVersion || len(rt.Experiments) != 1 {
		t.Fatalf("round-trip = %+v", rt)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte(`{"schema":"redbud-bench/999"}`))); err == nil {
		t.Fatal("foreign schema version must be rejected")
	}
	if _, err := Read(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("malformed input must be rejected")
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
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
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
