package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", Labels{"layer": "disk"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("ops", Labels{"layer": "disk"}); again != c {
		t.Fatal("same identity should return the same counter")
	}

	g := r.Gauge("depth", nil)
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}

	h := r.Histogram("lat", nil)
	for _, v := range []int64{10, 20, 30} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 60 || s.Min != 10 || s.Max != 30 {
		t.Fatalf("hist snapshot = %+v", s)
	}
}

// TestInterleavedUpdatesReachTotals interleaves eight update streams
// round-robin, in one goroutine, over one registry — counters, gauges,
// histograms, a collector — with late registrations and snapshots in
// between, and checks that every update lands in the totals.
func TestInterleavedUpdatesReachTotals(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", nil)
	g := r.Gauge("depth", nil)
	h := r.Histogram("lat", nil)
	r.CounterFunc("fn", nil, func() int64 { return c.Value() })

	const streams, perStream = 8, 2000
	for i := 0; i < perStream; i++ {
		for w := 0; w < streams; w++ {
			c.Inc()
			g.Set(int64(i))
			h.Observe(int64(i))
			if i%256 == 0 {
				r.Counter("hits", nil).Add(0)
				r.Snapshot()
			}
		}
	}

	if c.Value() != streams*perStream {
		t.Fatalf("counter = %d, want %d", c.Value(), streams*perStream)
	}
	if s := h.Snapshot(); s.Count != streams*perStream {
		t.Fatalf("histogram count = %d, want %d", s.Count, streams*perStream)
	}
	for _, s := range r.Snapshot() {
		if s.Name == "fn" && s.Value != streams*perStream {
			t.Fatalf("collector = %d, want %d", s.Value, streams*perStream)
		}
	}
}

func TestLabelsCanonAndWith(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	if got := a.canon(); got != "a=1,b=2" {
		t.Fatalf("canon = %q", got)
	}
	b := a.With("c", "3")
	if len(a) != 2 {
		t.Fatal("With must not mutate the receiver")
	}
	if got := b.canon(); got != "a=1,b=2,c=3" {
		t.Fatalf("canon = %q", got)
	}
	if Labels(nil).canon() != "" {
		t.Fatal("nil labels should render empty")
	}
}

func TestCollectorFuncsSum(t *testing.T) {
	r := NewRegistry()
	// Two components publishing under one identity (e.g. two mounts on one
	// registry) sum at snapshot time.
	r.CounterFunc("reqs", nil, func() int64 { return 3 })
	r.CounterFunc("reqs", nil, func() int64 { return 4 })
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snaps)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as a gauge should panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", nil).Inc()
	r.Counter("a", Labels{"k": "2"}).Inc()
	r.Counter("a", Labels{"k": "1"}).Inc()
	snaps := r.Snapshot()
	got := make([]string, len(snaps))
	for i, s := range snaps {
		got[i] = s.Name + "{" + s.Labels + "}"
	}
	want := []string{"a{k=1}", "a{k=2}", "b{}"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	var empty bytes.Buffer
	if err := r.WriteText(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no metrics registered") {
		t.Fatalf("empty render = %q", empty.String())
	}

	r.Counter("disk_requests", Labels{"layer": "disk"}).Add(12)
	r.Histogram("disk_service_ns", Labels{"layer": "disk"}).Observe(1000)
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"disk_requests", "disk_service_ns", "layer=disk"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc RegistryDoc
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("decoded %d metrics, want 2", len(doc.Metrics))
	}
	if doc.Events != nil {
		t.Fatalf("event-free registry should omit the events section, got %+v", doc.Events)
	}

	r.Events().Emit(10, "rpc", "retry", "obj-write")
	js.Reset()
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	doc = RegistryDoc{}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Events == nil || len(doc.Events.Counts) != 1 || doc.Events.Counts[0].Count != 1 {
		t.Fatalf("events section = %+v", doc.Events)
	}
}
