package telemetry

import (
	"strconv"
	"strings"

	"redbud/internal/sim"
)

// Span storage. Start hands out ActiveSpan values — the tracer, a slot in
// its table of open spans, and the span's ID — so opening a span allocates
// nothing. End copies the slot into three columns of pointer-free records
// (spans, typed attributes, events), kept in fixed-size chunks that never
// grow or move, so the garbage collector never scans them. Layer, span,
// attribute-key, string-value and event names are symbols, interned once
// per process; integers stay integers. Spans() formats the columns back
// into []Span only at export.

// Sym is a name in the process-wide symbol table: a span's layer or name,
// an attribute key or string value, an event name. An instrumented package
// interns its names once, at package level, so recording a span looks
// nothing up; Spans resolves the symbols back to strings at export.
type Sym uint32

// symNames is the process-wide symbol table, indexed by Sym, and symIDs its
// inverse. Like the label-intern table it is shared by the whole process
// and not safe for concurrent use.
var (
	symNames []string
	symIDs   = make(map[string]Sym)
)

// Intern returns the symbol of s, adding s to the table on first sight.
func Intern(s string) Sym {
	if id, ok := symIDs[s]; ok {
		return id
	}
	id := Sym(len(symNames))
	symNames = append(symNames, s)
	symIDs[s] = id
	return id
}

// SpanID identifies one span within a Tracer. Zero means "no span" and is
// the parent of root spans.
type SpanID int64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time marker inside a span (a merge, a positioning, a
// phase boundary), stamped on the simulated timeline.
type Event struct {
	Name string `json:"name"`
	At   sim.Ns `json:"at"`
}

// Span is one completed interval on the simulated timeline, attributed to a
// layer (pfs, mds, net, ost, iosched, disk, journal, ...).
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Begin  sim.Ns  `json:"begin"`
	End    sim.Ns  `json:"end"`
	Attrs  []Attr  `json:"attrs,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Dur returns the span's duration.
func (s Span) Dur() sim.Ns { return s.End - s.Begin }

// DefaultMaxSpans bounds a tracer's retained spans. Benchmark runs issue
// hundreds of thousands of requests; the cap keeps a whole-run trace at a
// size chrome://tracing still opens, dropping the tail and counting drops.
const DefaultMaxSpans = 200_000

// chunkLen is the record count of one column chunk.
const chunkLen = 4096

// column is an append-only sequence of records in fixed-size chunks:
// appending never copies a record, and Reset keeps the chunks for reuse.
type column[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

func (c *column[T]) push(v T) {
	if c.n == len(c.chunks)*chunkLen {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
	c.chunks[c.n/chunkLen][c.n%chunkLen] = v
	c.n++
}

func (c *column[T]) at(i int) *T { return &c.chunks[i/chunkLen][i%chunkLen] }

// spanRec is one committed span. Its attributes and events are the column
// runs ending at attrEnd and eventEnd; each starts where the previous
// span's run ends.
type spanRec struct {
	id, parent        SpanID
	begin, end        sim.Ns
	layer, name       Sym
	attrEnd, eventEnd int
}

// attrRec is one attribute: a key symbol and either an integer (str 0)
// or a string value (its symbol + 1 in str).
type attrRec struct {
	key, str Sym
	num      int64
}

// eventRec is one event: a name symbol and its time.
type eventRec struct {
	name Sym
	at   sim.Ns
}

// openSpan is one slot of the open-span table; id 0 marks a free slot. The
// attribute and event buffers are reused by the slot's next span.
type openSpan struct {
	id, parent  SpanID
	layer, name Sym
	begin       sim.Ns
	attrs       []attrRec
	events      []eventRec
}

// Tracer records spans on a simulated clock. Every method is safe on a nil
// receiver (it becomes a no-op) so instrumented code paths need no
// tracing-enabled conditionals.
type Tracer struct {
	clock *sim.Clock

	nextID  SpanID
	max     int
	dropped int64
	open    []openSpan
	free    []int
	spans   column[spanRec]
	attrs   column[attrRec]
	events  column[eventRec]
}

// NewTracer builds a tracer over the given clock; a nil clock gets a fresh
// one starting at time zero. The clock is the trace's timeline: device and
// CPU model costs are folded into it via Advance as instrumented layers
// incur them.
func NewTracer(clock *sim.Clock) *Tracer {
	if clock == nil {
		clock = &sim.Clock{}
	}
	return &Tracer{clock: clock, max: DefaultMaxSpans}
}

// Clock returns the tracer's timeline clock (nil for a nil tracer).
func (t *Tracer) Clock() *sim.Clock {
	if t == nil {
		return nil
	}
	return t.clock
}

// SetMaxSpans bounds the retained span count; n <= 0 means unbounded.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	t.max = n
}

// Now returns the current simulated time (0 for a nil tracer).
func (t *Tracer) Now() sim.Ns {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// Advance moves the trace timeline forward by the given cost. Instrumented
// layers call it with the simulated durations their device/CPU models
// return, which serializes the work of one request into a readable
// timeline.
func (t *Tracer) Advance(d sim.Ns) {
	if t == nil || d <= 0 {
		return
	}
	t.clock.Advance(d)
}

// ActiveSpan is a handle on an in-progress span. The zero value is the
// no-op handle a nil tracer returns, so call sites stay unconditional
// whether or not tracing is on; a handle whose span has ended is inert too.
// Each method is a nil test the compiler inlines in front of the tracer's
// half, so an untraced call site pays no call.
type ActiveSpan struct {
	t    *Tracer
	slot int
	id   SpanID
}

// Begin opens a span at the current simulated time. On a nil tracer it
// returns the zero ActiveSpan, whose methods do nothing.
func (t *Tracer) Begin(layer, name Sym, parent SpanID) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return t.begin(layer, name, parent)
}

// Start is Begin for names given as strings: it interns both per call, so
// instrumented code paths declare symbols and call Begin instead.
func (t *Tracer) Start(layer, name string, parent SpanID) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return t.begin(Intern(layer), Intern(name), parent)
}

func (t *Tracer) begin(layer, name Sym, parent SpanID) ActiveSpan {
	begin := t.clock.Now()
	t.nextID++
	id := t.nextID
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = len(t.open)
		t.open = append(t.open, openSpan{})
	}
	o := &t.open[slot]
	o.id, o.parent, o.begin = id, parent, begin
	o.layer, o.name = layer, name
	o.attrs, o.events = o.attrs[:0], o.events[:0]
	return ActiveSpan{t: t, slot: slot, id: id}
}

// ID returns the span's identifier (0 for the no-op handle).
func (s ActiveSpan) ID() SpanID { return s.id }

// live returns s's slot, or nil once the span has ended.
func (t *Tracer) live(s ActiveSpan) *openSpan {
	if o := &t.open[s.slot]; o.id == s.id {
		return o
	}
	return nil
}

// Annotate attaches a key/value attribute whose value is a symbol.
func (s ActiveSpan) Annotate(key, value Sym) {
	if s.t != nil {
		s.t.annotate(s, attrRec{key: key, str: value + 1})
	}
}

// AnnotateInt attaches an integer attribute; it is formatted only at
// export.
func (s ActiveSpan) AnnotateInt(key Sym, value int64) {
	if s.t != nil {
		s.t.annotate(s, attrRec{key: key, num: value})
	}
}

// annotate appends one attribute to s.
func (t *Tracer) annotate(s ActiveSpan, a attrRec) {
	if o := t.live(s); o != nil {
		o.attrs = append(o.attrs, a)
	}
}

// Event records a point-in-time marker at the current simulated time.
func (s ActiveSpan) Event(name Sym) {
	if s.t != nil {
		s.t.event(s, name)
	}
}

func (t *Tracer) event(s ActiveSpan, name Sym) {
	if o := t.live(s); o != nil {
		o.events = append(o.events, eventRec{name: name, at: t.clock.Now()})
	}
}

// End closes the span at the current simulated time and commits it to the
// tracer — or, over the retention cap, drops it with its attributes and
// counts the drop. Ending an ended span does nothing.
func (s ActiveSpan) End() {
	if s.t != nil {
		s.t.end(s)
	}
}

func (t *Tracer) end(s ActiveSpan) {
	o := t.live(s)
	if o == nil {
		return
	}
	if t.max > 0 && t.spans.n >= t.max {
		t.dropped++
	} else {
		for _, a := range o.attrs {
			t.attrs.push(a)
		}
		for _, e := range o.events {
			t.events.push(e)
		}
		t.spans.push(spanRec{
			id: o.id, parent: o.parent, begin: o.begin, end: t.clock.Now(),
			layer: o.layer, name: o.name,
			attrEnd: t.attrs.n, eventEnd: t.events.n,
		})
	}
	o.id = 0
	t.free = append(t.free, s.slot)
}

// Mark records an instantaneous root span — a global timeline marker such
// as a benchmark phase boundary.
func (t *Tracer) Mark(layer, name string) {
	t.Start(layer, name, 0).End()
}

// decLen returns the length of v in decimal.
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Spans returns the recorded spans in commit order. Every span's Attrs and
// Events are capacity-limited windows on one shared backing each, and
// every integer attribute value is a window on one string.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	// The span slice, by far the largest allocation here, comes first: a
	// collection that the export sets off then always finds it live. Were
	// it last, whether the collection saw it would hang on which of the
	// export's allocations crossed the trigger, and the heap goal after an
	// export — and so the resident set — would differ from run to run.
	out := make([]Span, t.spans.n)
	digits := 0
	for i := 0; i < t.attrs.n; i++ {
		if a := t.attrs.at(i); a.str == 0 {
			digits += decLen(a.num)
		}
	}
	var b strings.Builder
	b.Grow(digits)
	var buf [20]byte
	for i := 0; i < t.attrs.n; i++ {
		if a := t.attrs.at(i); a.str == 0 {
			b.Write(strconv.AppendInt(buf[:0], a.num, 10))
		}
	}
	nums, pos := b.String(), 0
	attrs := make([]Attr, t.attrs.n)
	for i := range attrs {
		a := t.attrs.at(i)
		attrs[i].Key = symNames[a.key]
		if a.str != 0 {
			attrs[i].Value = symNames[a.str-1]
			continue
		}
		n := decLen(a.num)
		attrs[i].Value = nums[pos : pos+n]
		pos += n
	}
	events := make([]Event, t.events.n)
	for i := range events {
		e := t.events.at(i)
		events[i] = Event{Name: symNames[e.name], At: e.at}
	}

	attr0, event0 := 0, 0
	for i := range out {
		r := t.spans.at(i)
		out[i] = Span{
			ID: r.id, Parent: r.parent,
			Layer: symNames[r.layer], Name: symNames[r.name],
			Begin: r.begin, End: r.end,
		}
		if r.attrEnd > attr0 {
			out[i].Attrs = attrs[attr0:r.attrEnd:r.attrEnd]
		}
		if r.eventEnd > event0 {
			out[i].Events = events[event0:r.eventEnd:r.eventEnd]
		}
		attr0, event0 = r.attrEnd, r.eventEnd
	}
	return out
}

// Len returns the retained span count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.spans.n
}

// Dropped returns the number of spans discarded over the retention cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Reset drops every recorded span (the timeline clock keeps running, so a
// multi-phase harness gets disjoint per-phase traces). Spans still open
// commit into the emptied log when they end.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans.n, t.attrs.n, t.events.n = 0, 0, 0
	t.dropped = 0
}
