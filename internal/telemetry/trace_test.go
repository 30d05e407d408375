package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"redbud/internal/sim"
)

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Advance(100)
	tr.Mark("phase", "x")
	sp := tr.Start("disk", "read", 0)
	sp.Annotate(Intern("k"), Intern("v"))
	sp.Event(Intern("e"))
	sp.End()
	if sp.ID() != 0 || tr.Now() != 0 || tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must be a transparent no-op")
	}
}

func TestSpanNestingAndClock(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Start("pfs", "write", 0)
	tr.Advance(10)
	child := tr.Start("disk", "read", root.ID())
	tr.Advance(40)
	child.End()
	tr.Advance(5)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Commit order: children end first.
	c, r := spans[0], spans[1]
	if c.Parent != r.ID {
		t.Fatalf("child parent = %d, want %d", c.Parent, r.ID)
	}
	if c.Begin != 10 || c.End != 50 || c.Dur() != 40 {
		t.Fatalf("child interval [%d,%d]", c.Begin, c.End)
	}
	if r.Begin != 0 || r.End != 55 {
		t.Fatalf("root interval [%d,%d]", r.Begin, r.End)
	}
	if tr.Now() != sim.Ns(55) {
		t.Fatalf("clock = %d", tr.Now())
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		tr.Start("disk", "op", 0).End()
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len/dropped = %d/%d, want 2/3", tr.Len(), tr.Dropped())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset should clear spans and the drop counter")
	}
	if tr.Now() == 0 {
		// The clock keeps running across Reset only if time had passed;
		// nothing advanced it here, so 0 is correct.
		tr.Advance(1)
		if tr.Now() != 1 {
			t.Fatal("clock must survive Reset")
		}
	}
}

// TestCappedTracerAccountsEverySpan interleaves eight span streams
// round-robin, in one goroutine, over one capped tracer, every stream's
// span open across the others' and exports read in between: each span
// started is either retained or counted as dropped.
func TestCappedTracerAccountsEverySpan(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetMaxSpans(1000)
	const streams, perStream = 8, 500
	open := make([]ActiveSpan, streams)
	for i := 0; i < perStream; i++ {
		for w := range open {
			open[w] = tr.Start("disk", "op", 0)
			tr.Advance(1)
		}
		for w, sp := range open {
			sp.Annotate(Intern("w"), Intern(string(rune('a'+w))))
			sp.End()
		}
		if i%128 == 0 {
			tr.Spans()
		}
	}
	if tr.Len()+int(tr.Dropped()) != streams*perStream {
		t.Fatalf("retained %d + dropped %d spans, want %d total", tr.Len(), tr.Dropped(), streams*perStream)
	}
}

func TestSpanLogRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Start("ost", "write", 0)
	sp.Annotate(Intern("blocks"), Intern("64"))
	tr.Advance(123)
	sp.Event(Intern("positioning"))
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteSpanLog(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpanLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("round-tripped %d spans, want 1", len(got))
	}
	s := got[0]
	if s.Layer != "ost" || s.Name != "write" || s.Dur() != 123 {
		t.Fatalf("span = %+v", s)
	}
	if len(s.Attrs) != 1 || s.Attrs[0].Key != "blocks" || len(s.Events) != 1 {
		t.Fatalf("attrs/events lost: %+v", s)
	}

	if _, err := ReadSpanLog(bytes.NewBufferString(`{"format":"other/9","spans":[]}`)); err == nil {
		t.Fatal("foreign format must be rejected")
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Start("pfs", "write", 0)
	tr.Advance(1000)
	d := tr.Start("disk", "write", root.ID())
	tr.Advance(2000)
	d.Event(Intern("positioning"))
	d.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var meta, complete, instant int
	tids := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			tids[ev.Args["name"]] = ev.TID
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if meta != 2 || complete != 2 || instant != 1 {
		t.Fatalf("event counts M/X/i = %d/%d/%d", meta, complete, instant)
	}
	// Track order follows the IO path: pfs above disk.
	if tids["pfs"] >= tids["disk"] {
		t.Fatalf("tid order: pfs=%d disk=%d", tids["pfs"], tids["disk"])
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Name == "write" && ev.TID == tids["disk"] {
			if ev.TS != 1.0 || ev.Dur != 2.0 {
				t.Fatalf("disk event ts/dur = %g/%g µs, want 1/2", ev.TS, ev.Dur)
			}
		}
	}
}

// TestChromeTraceDeterministic renders one multi-layer span set many times:
// the thread-name metadata must come out in tid order every time, so the
// same spans always give the same bytes.
func TestChromeTraceDeterministic(t *testing.T) {
	tr := NewTracer(nil)
	for i, layer := range []string{"pfs", "rpc", "net", "ost", "iosched", "disk", "mds", "journal", "zeta", "alpha"} {
		sp := tr.Start(layer, "op", 0)
		tr.Advance(sim.Ns(100 * (i + 1)))
		sp.End()
	}
	spans := tr.Spans()
	var first bytes.Buffer
	if err := WriteChromeTrace(&first, spans); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, spans); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, buf.Bytes(), first.Bytes())
		}
	}
}

// TestDoubleEndIsNoop ends one handle twice, and annotates it in between:
// only the first End commits.
func TestDoubleEndIsNoop(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Start("ost", "write", 0)
	sp.AnnotateInt(Intern("blocks"), 8)
	sp.End()
	sp.AnnotateInt(Intern("blocks"), 9)
	sp.Event(Intern("late"))
	tr.Advance(5)
	sp.End()
	// The freed slot is reused; the stale handle must not reach its new span.
	next := tr.Start("ost", "read", 0)
	sp.End()
	next.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].ID != sp.ID() || spans[1].ID != next.ID() {
		t.Fatalf("spans = %+v, want the first span once, then the second", spans)
	}
	if got := spans[0]; got.End != 0 || len(got.Attrs) != 1 || got.Attrs[0].Value != "8" || got.Events != nil {
		t.Fatalf("first span = %+v, want its state at the first End", got)
	}
}

// TestExportedAttrsAreIsolated appends to one exported span's attributes:
// the shared backing is capacity-limited per span, so the append must not
// overwrite its neighbour's.
func TestExportedAttrsAreIsolated(t *testing.T) {
	tr := NewTracer(nil)
	for i := int64(0); i < 2; i++ {
		sp := tr.Start("disk", "read", 0)
		sp.AnnotateInt(Intern("start"), 100+i)
		sp.Annotate(Intern("dev"), Intern("sda"))
		sp.Event(Intern("positioning"))
		sp.End()
	}
	spans := tr.Spans()
	spans[0].Attrs = append(spans[0].Attrs, Attr{Key: "x", Value: "y"})
	spans[0].Events = append(spans[0].Events, Event{Name: "x"})
	want := []Attr{{Key: "start", Value: "101"}, {Key: "dev", Value: "sda"}}
	if !reflect.DeepEqual(spans[1].Attrs, want) {
		t.Fatalf("neighbour attrs = %+v, want %+v", spans[1].Attrs, want)
	}
	if len(spans[1].Events) != 1 || spans[1].Events[0].Name != "positioning" {
		t.Fatalf("neighbour events = %+v", spans[1].Events)
	}
}

// TestCapDropsAttributes fills the cap, then ends an annotated span over
// it: the span and its attributes and events are gone, and the next
// export after a Reset sees only new spans' attributes.
func TestCapDropsAttributes(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetMaxSpans(1)
	kept := tr.Start("pfs", "write", 0)
	over := tr.Start("ost", "write", kept.ID())
	over.AnnotateInt(Intern("blocks"), 64)
	over.Event(Intern("positioning"))
	kept.AnnotateInt(Intern("blocks"), 8)
	kept.End()
	over.End()
	spans := tr.Spans()
	if tr.Dropped() != 1 || len(spans) != 1 {
		t.Fatalf("len/dropped = %d/%d, want 1/1", len(spans), tr.Dropped())
	}
	if want := []Attr{{Key: "blocks", Value: "8"}}; !reflect.DeepEqual(spans[0].Attrs, want) || spans[0].Events != nil {
		t.Fatalf("kept span = %+v, want only its own attribute", spans[0])
	}
	tr.Reset()
	sp := tr.Start("disk", "read", 0)
	sp.AnnotateInt(Intern("start"), -42)
	sp.End()
	if spans := tr.Spans(); len(spans) != 1 || !reflect.DeepEqual(spans[0].Attrs, []Attr{{Key: "start", Value: "-42"}}) {
		t.Fatalf("after Reset: %+v", spans)
	}
}

// TestSpanHotPathAllocs: once the open-span table and the first column
// chunks exist, recording a span by symbols allocates nothing — and, the
// names being interned once, looks nothing up.
func TestSpanHotPathAllocs(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetMaxSpans(0)
	disk, write := Intern("disk"), Intern("write")
	start, positioning := Intern("start"), Intern("positioning")
	record := func() {
		sp := tr.Begin(disk, write, 7)
		sp.AnnotateInt(start, 4096)
		sp.Event(positioning)
		sp.End()
	}
	record()
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Fatalf("Begin+AnnotateInt+Event+End allocates %.1f objects/span, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Start("disk", "write", 7).End() }); allocs != 0 {
		t.Fatalf("Start+End by strings allocates %.1f objects/span, want 0", allocs)
	}
}
