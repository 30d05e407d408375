package pfs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// spanLogOutputs are the exported bytes of one observed run.
type spanLogOutputs struct {
	spanLog, critpath, registry, clock []byte
}

// spanLogScript drives one small fully observed mount — 2-way replication,
// seeded message loss, an OST crash, revive and repair, and the client
// cache when ccfg is set — through a short mix of file operations, and
// returns the tracer's span log, its critical-path report, the registry
// document and the final simulated clock.
func spanLogScript(t *testing.T, ccfg *cache.Config) spanLogOutputs {
	t.Helper()
	cfg := MiF(3)
	cfg.Cache = ccfg
	rc := replica.DefaultConfig()
	rc.RF = 2
	cfg.Replication = &rc
	faults := rpc.UniformFaults(11, 0.02)
	cfg.RPC = rpc.ClientConfig{
		Retry: &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 3},
		Fault: &faults,
	}
	cfg.Metrics = telemetry.NewRegistry()
	tr := telemetry.NewTracer(nil)
	cfg.Trace = tr
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	stream := core.StreamID{Client: 1, PID: 1}
	a, err := fs.Create(fs.Root(), "a.dat", 0)
	must("create a", err)
	b, err := fs.Create(fs.Root(), "b.dat", 0)
	must("create b", err)
	for i := int64(0); i < 4; i++ {
		must("write a", a.Write(stream, i*8, 8))
		must("write b", b.Write(stream, i*8, 8))
	}
	// A distant write makes the next barrier's dispatch reposition the head,
	// so disk spans carry positioning events.
	must("write a far", a.Write(stream, 1<<16, 8))
	must("fsync a", a.Fsync())
	must("read a", a.Read(0, 32))
	must("truncate b", b.Truncate(16))
	must("crash", fs.CrashOST(1))
	for i := int64(0); i < 2; i++ {
		must("write a during outage", a.Write(stream, 32+i*8, 8))
	}
	must("fsync a during outage", a.Fsync())
	must("revive", fs.ReviveOST(1))
	must("repair", fs.RepairDrain())
	must("read a after repair", a.Read(0, 48))
	must("close b", b.Close())
	must("delete b", fs.Delete(fs.Root(), "b.dat"))

	var out spanLogOutputs
	var log, cp, reg bytes.Buffer
	must("span log", tr.WriteSpanLog(&log))
	must("critpath", telemetry.AnalyzeCritPath(tr.Spans(), 5).WriteText(&cp))
	must("registry", cfg.Metrics.WriteJSON(&reg))
	out.spanLog, out.critpath, out.registry = log.Bytes(), cp.Bytes(), reg.Bytes()
	out.clock = []byte(fmt.Sprintf("%d\n", tr.Now()))
	return out
}

// TestSpanLogGolden pins a fully observed mount's exported bytes — every
// span, its attributes and events in commit order, the critical-path report
// derived from them, the registry document and the final simulated clock —
// to testdata, so neither a storage change in the tracer nor a change to
// the data path can alter what is recorded. The cached row's span log and
// critpath were recorded from the tracer that kept a heap object per span;
// the uncached row was recorded from the mount whose file operations still
// branched on a nil cache. Run with -update to rewrite the files.
func TestSpanLogGolden(t *testing.T) {
	ccfg := cache.DefaultConfig()
	ccfg.CapacityBlocks = 64
	ccfg.DirtyHighWater = 32
	for _, row := range []struct {
		suffix string
		cache  *cache.Config
	}{
		{"", &ccfg},
		{".uncached", nil},
	} {
		out := spanLogScript(t, row.cache)
		checkGolden(t, "spanlog"+row.suffix+".golden.json", out.spanLog)
		checkGolden(t, "critpath"+row.suffix+".golden.txt", out.critpath)
		checkGolden(t, "registry"+row.suffix+".golden.json", out.registry)
		checkGolden(t, "clock"+row.suffix+".golden.txt", out.clock)
	}
}

// checkGolden compares got with testdata/file line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", file, i+1, g, w)
		}
	}
}
