package rpc

import (
	"errors"
	"strings"
	"testing"

	"redbud/internal/core"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/netsim"
	"redbud/internal/ost"
	"redbud/internal/telemetry"
)

func newMDS(t *testing.T) *mds.Server {
	t.Helper()
	srv, err := mds.New(mds.DefaultConfig(mdfs.LayoutEmbedded))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func vanillaFactory(src core.BlockSource, _ int64) core.Policy {
	return core.NewVanilla(src)
}

// counterValue sums a counter's snapshot values across label sets,
// optionally filtered by a labels substring.
func counterValue(reg *telemetry.Registry, name, labelPart string) int64 {
	var total int64
	for _, s := range reg.Snapshot() {
		if s.Name == name && (labelPart == "" || strings.Contains(s.Labels, labelPart)) {
			total += s.Value
		}
	}
	return total
}

// TestMetaMessagesRideSingleCells drives the metadata client over a GbE
// link: every common metadata RPC charges one 512-byte cell each way, and
// only a bulk layout grows past it.
func TestMetaMessagesRideSingleCells(t *testing.T) {
	srv := newMDS(t)
	link := netsim.NewLink(netsim.GbE())
	cl := NewMDSClient(NewConn(ClientConfig{}), "mds", srv, link)
	root := srv.Root()
	// charged runs one call and returns the messages and bytes it moved.
	charged := func(op string, call func() error) (int64, int64) {
		t.Helper()
		before := link.Stats()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		st := link.Stats()
		return st.Messages - before.Messages, st.Bytes - before.Bytes
	}
	oneCell := func(op string, call func() error) {
		t.Helper()
		if msgs, bytes := charged(op, call); msgs != 2 || bytes != 2*CellBytes {
			t.Errorf("%s charged %d messages / %d bytes, want 2 / %d", op, msgs, bytes, 2*CellBytes)
		}
	}
	var ino inode.Ino
	oneCell("mkdir", func() (err error) { _, err = cl.Mkdir(root, "dir"); return err })
	oneCell("create", func() (err error) { ino, err = cl.Create(root, "checkpoint.0001"); return err })
	oneCell("lookup", func() (err error) { _, err = cl.LookupResolved(root, "checkpoint.0001"); return err })
	oneCell("setlayout", func() error { return cl.SetLayout(ino, nil) })
	oneCell("open-getlayout", func() (err error) { _, _, err = cl.OpenGetLayout(root, "checkpoint.0001"); return err })
	// A 100-extent layout grows past one cell: the setlayout request and
	// the open-getlayout response carry it.
	long := make([]extent.Extent, 100)
	for i := range long {
		long[i] = extent.Extent{Logical: int64(2 * i), Physical: int64(4 * i), Count: 1}
	}
	if _, bytes := charged("bulk setlayout", func() error { return cl.SetLayout(ino, long) }); bytes <= 2*CellBytes {
		t.Errorf("100-extent setlayout charged %d bytes, want > %d", bytes, 2*CellBytes)
	}
	var layout []extent.Extent
	if _, bytes := charged("bulk open-getlayout", func() (err error) {
		_, layout, err = cl.OpenGetLayout(root, "checkpoint.0001")
		return err
	}); len(layout) != len(long) || bytes <= 2*CellBytes {
		t.Errorf("open-getlayout of %d extents charged %d bytes, want 100 extents and > %d",
			len(layout), bytes, 2*CellBytes)
	}
	oneCell("unlink", func() error { return cl.Unlink(root, "checkpoint.0001") })
}

// TestReplayCacheMakesRetriesIdempotent: the cache runs exec once per xid
// and answers a repeat from the record — the response size and the error
// the one execution returned — counting the hit.
func TestReplayCacheMakesRetriesIdempotent(t *testing.T) {
	c := newReplayCache()
	execs := 0
	exec := func(size int64, err error) func() (int64, error) {
		return func() (int64, error) {
			execs++
			return size, err
		}
	}
	for i := 0; i < 2; i++ {
		if size, err := c.serve(42, exec(CellBytes, nil)); size != CellBytes || err != nil {
			t.Fatalf("serve %d of xid 42 = %d, %v; want %d, nil", i, size, err, CellBytes)
		}
	}
	if execs != 1 || c.hits != 1 {
		t.Fatalf("xid 42 served twice: %d executions, %d hits; want 1, 1", execs, c.hits)
	}
	// A failed execution is recorded as it came, and a repeat gets it back
	// without running again — even if the new attempt would succeed.
	failed := errors.New("no such entry")
	if _, err := c.serve(43, exec(0, failed)); err != failed {
		t.Fatalf("serve xid 43 = %v, want %v", err, failed)
	}
	if size, err := c.serve(43, exec(CellBytes, nil)); size != 0 || err != failed {
		t.Fatalf("replayed xid 43 = %d, %v; want the recorded 0, %v", size, err, failed)
	}
	if execs != 2 || c.hits != 2 {
		t.Fatalf("after xid 43: %d executions, %d hits; want 2, 2", execs, c.hits)
	}
}

func TestNetTransportChargesLinkPerDirection(t *testing.T) {
	srv := newMDS(t)
	link := netsim.NewLink(netsim.GbE())
	cl := NewMDSClient(NewConn(ClientConfig{}), "mds", srv, link)
	if _, err := cl.Create(srv.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.Messages != 2 || st.Bytes != 2*CellBytes {
		t.Fatalf("one metadata RPC charged %d messages / %d bytes, want 2 / %d",
			st.Messages, st.Bytes, 2*CellBytes)
	}
	// Control-plane ops never touch the link.
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	if st2 := link.Stats(); st2 != st {
		t.Fatalf("mds-sync moved link stats %+v -> %+v, want no wire traffic", st, st2)
	}
}

// TestDataMessagesChargePayloadOneWay: a write's request and a read's
// response carry exactly the payload, their other legs are free, and every
// control op moves no link bytes at all.
func TestDataMessagesChargePayloadOneWay(t *testing.T) {
	srv := ost.NewServer(0, ost.DefaultConfig())
	link := netsim.NewLink(netsim.FC400())
	cl := NewOSTClient(NewConn(ClientConfig{}), "ost0", srv, vanillaFactory, link, 4096)
	stream := core.StreamID{Client: 1, PID: 1}

	// A write to a missing object fails at the server, after its request
	// leg crossed: the payload rides the request, the refusal is free.
	if _, err := cl.Write(9, stream, 0, 64); err == nil {
		t.Fatal("write to a missing object must fail")
	}
	st := link.Stats()
	if st.Messages != 1 || st.Bytes != 64*4096 {
		t.Fatalf("write request charged %d msgs / %d bytes, want 1 / payload %d", st.Messages, st.Bytes, 64*4096)
	}
	// A read of a missing object moves nothing: the descriptor is free, and
	// with no payload to return neither is the response.
	if err := cl.Read(9, 0, 1); err == nil {
		t.Fatal("read of a missing object must fail")
	}
	if got := link.Stats(); got != st {
		t.Fatalf("read descriptor must be free, moved link stats %+v -> %+v", st, got)
	}
	if err := cl.CreateObject(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(1, stream, 0, 1); err != nil {
		t.Fatal(err)
	}
	st = link.Stats()
	if err := cl.Read(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := link.Stats(); got.Messages-st.Messages != 1 || got.Bytes-st.Bytes != 4096 {
		t.Fatalf("read response charged %d msgs / %d bytes, want 1 / payload 4096",
			got.Messages-st.Messages, got.Bytes-st.Bytes)
	}
	st = link.Stats()
	// The MDS client rides the same link, so a byte its control ops moved
	// would show.
	mdsc := NewMDSClient(cl.conn, "mds", newMDS(t), link)
	for _, c := range []struct {
		op   string
		call func() error
	}{
		{"create", func() error { return cl.CreateObject(2, 0) }},
		{"fallocate", func() error { return cl.Fallocate(2, stream, 8) }},
		{"fsync", func() error { return cl.Fsync(1) }},
		{"truncate", func() error { return cl.Truncate(1, 0) }},
		{"close", func() error { return cl.CloseObject(1) }},
		{"extent-count", func() (err error) { _, err = cl.ExtentCount(2); return err }},
		{"extents", func() (err error) { _, err = cl.Extents(2); return err }},
		{"written-runs", func() (err error) { _, err = cl.WrittenRuns(2); return err }},
		{"flush", func() (err error) { _, err = cl.Flush(); return err }},
		{"delete", func() error { return cl.Delete(2) }},
		{"mds-sync", mdsc.Sync},
		{"extent-churn", func() error { return mdsc.NoteExtentChurn(10) }},
	} {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got := link.Stats(); got != st {
			t.Fatalf("%s is control plane, moved link stats %+v -> %+v", c.op, st, got)
		}
	}
}

// TestOSTDataPathChargesPayload drives a 64-block write and read-back
// over a FibreChannel link: each moves the payload once.
func TestOSTDataPathChargesPayload(t *testing.T) {
	srv := ost.NewServer(0, ost.DefaultConfig())
	link := netsim.NewLink(netsim.FC400())
	blockSize := ost.DefaultConfig().Disk.BlockSize
	cl := NewOSTClient(NewConn(ClientConfig{}), "ost0", srv, vanillaFactory, link, blockSize)

	if err := cl.CreateObject(1, 0); err != nil {
		t.Fatal(err)
	}
	if st := link.Stats(); st.Messages != 0 {
		t.Fatalf("object create is control plane, charged %+v", st)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	if _, err := cl.Write(1, stream, 0, 64); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.Messages != 1 || st.Bytes != 64*blockSize {
		t.Fatalf("64-block write charged %d msgs / %d bytes, want 1 / %d",
			st.Messages, st.Bytes, 64*blockSize)
	}
	if err := cl.Read(1, 0, 64); err != nil {
		t.Fatal(err)
	}
	st = link.Stats()
	if st.Messages != 2 || st.Bytes != 2*64*blockSize {
		t.Fatalf("read added %d msgs / %d bytes total, want 2 / %d",
			st.Messages, st.Bytes, 2*64*blockSize)
	}
	n, err := cl.ExtentCount(1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("extent count = %d, want >= 1", n)
	}
}

// TestTimedOutRPCRetriedToCompletion is the acceptance scenario: under
// injected message loss, a metadata RPC times out, is retried, and
// completes — with the timeout and retry visible in layer=rpc telemetry
// and the wait visible on the simulated clock.
func TestTimedOutRPCRetriedToCompletion(t *testing.T) {
	srv := newMDS(t)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(nil)
	fault := UniformFaults(7, 0.5)
	conn := NewConn(ClientConfig{Fault: &fault})
	cl := NewMDSClient(conn, "mds", srv, netsim.NewLink(netsim.GbE()))
	conn.SetTracer(tr)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})

	for i := 0; i < 32; i++ {
		name := "f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if _, err := cl.Create(srv.Root(), name); err != nil {
			t.Fatalf("create %d failed under retry: %v", i, err)
		}
	}
	timeouts := counterValue(reg, "rpc_timeouts", "")
	retries := counterValue(reg, "rpc_retries", "")
	recoveries := counterValue(reg, "rpc_recoveries", "")
	if timeouts == 0 || retries == 0 || recoveries == 0 {
		t.Fatalf("want visible timeouts/retries/recoveries, got %d/%d/%d",
			timeouts, retries, recoveries)
	}
	// rpc_calls counts wire attempts, so response-loss retries push it
	// past the 32 logical creates.
	if got := counterValue(reg, "rpc_calls", "op=create"); got < 32 {
		t.Fatalf("rpc_calls{op=create} = %d, want >= 32", got)
	}
	if tr.Now() < DefaultRetryPolicy().TimeoutNs {
		t.Fatalf("simulated clock advanced %d ns, want at least one timeout (%d ns)",
			tr.Now(), DefaultRetryPolicy().TimeoutNs)
	}
	var rpcSpans int
	for _, sp := range tr.Spans() {
		if sp.Layer == "rpc" {
			rpcSpans++
		}
	}
	if rpcSpans == 0 {
		t.Fatal("no rpc-layer spans recorded")
	}
	// Response-loss retries were answered from the replay cache, so the
	// server executed each logical create at most once.
	if got := srv.Stats().RPCs; got != 32 {
		t.Fatalf("server executed %d RPCs for 32 logical creates, want 32", got)
	}
}

func TestRetryExhaustionSurfacesTimeout(t *testing.T) {
	srv := newMDS(t)
	fault := FaultConfig{Seed: 1, Meta: FaultRates{Drop: 1}}
	policy := RetryPolicy{MaxRetries: 2}
	conn := NewConn(ClientConfig{Fault: &fault, Retry: &policy})
	cl := NewMDSClient(conn, "mds", srv, nil)
	_, err := cl.Create(srv.Root(), "doomed")
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Kind != KindTimeout {
		t.Fatalf("err = %v, want ExhaustedError with KindTimeout", err)
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want errors.Is(err, ErrRetriesExhausted)", err)
	}
	if ex.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (first try + 2 retries)", ex.Attempts)
	}
	if got := srv.Stats().RPCs; got != 0 {
		t.Fatalf("server executed %d RPCs, want 0 (every request dropped)", got)
	}
}

// TestNoRetryPolicyFailsOnFirstDrop is the regression test for the
// zero-vs-unset retry bug: MaxRetries: 0 used to silently promote to the
// default budget of 8, so a caller could not express "no retries". The
// NoRetries sentinel (and NoRetryPolicy) must fail on the very first
// dropped message with KindTimeout — exactly one wire attempt, no re-sends.
func TestNoRetryPolicyFailsOnFirstDrop(t *testing.T) {
	srv := newMDS(t)
	reg := telemetry.NewRegistry()
	fault := FaultConfig{Seed: 1, Meta: FaultRates{Drop: 1}}
	policy := NoRetryPolicy()
	conn := NewConn(ClientConfig{Fault: &fault, Retry: &policy})
	cl := NewMDSClient(conn, "mds", srv, nil)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	_, err := cl.Create(srv.Root(), "dropped")
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Kind != KindTimeout {
		t.Fatalf("err = %v, want ExhaustedError with KindTimeout on the first drop", err)
	}
	if ex.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (no re-sends)", ex.Attempts)
	}
	if got := counterValue(reg, "rpc_retries", ""); got != 0 {
		t.Fatalf("no-retry policy re-sent %d times, want 0", got)
	}
	if got := counterValue(reg, "rpc_calls", "op=create"); got != 0 {
		t.Fatalf("rpc_calls{op=create} = %d, want 0 (the one attempt dropped before the wire)", got)
	}
	if got := counterValue(reg, "rpc_timeouts", ""); got != 1 {
		t.Fatalf("rpc_timeouts = %d, want 1 (the drop was charged)", got)
	}
	// The explicit sentinel works without the constructor too.
	policy2 := RetryPolicy{MaxRetries: NoRetries}
	conn2 := NewConn(ClientConfig{Fault: &fault, Retry: &policy2})
	if _, err := NewMDSClient(conn2, "mds", srv, nil).Create(srv.Root(), "dropped2"); err == nil {
		t.Fatal("sentinel MaxRetries policy must fail on the first drop")
	}
}

func TestApplicationErrorsPassThroughWithoutRetry(t *testing.T) {
	srv := newMDS(t)
	reg := telemetry.NewRegistry()
	conn := NewConn(ClientConfig{})
	cl := NewMDSClient(conn, "mds", srv, nil)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	if _, err := cl.LookupResolved(srv.Root(), "missing"); err == nil {
		t.Fatal("lookup of a missing name must fail")
	} else if _, isRPC := err.(*Error); isRPC {
		t.Fatalf("application error surfaced as rpc error: %v", err)
	}
	if got := counterValue(reg, "rpc_retries", ""); got != 0 {
		t.Fatalf("application error was retried %d times, want 0", got)
	}
	if got := counterValue(reg, "rpc_errors", "op=lookup"); got != 1 {
		t.Fatalf("rpc_errors{op=lookup} = %d, want 1", got)
	}
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	run := func() (int64, netsim.Stats, int64) {
		srv := newMDS(t)
		reg := telemetry.NewRegistry()
		link := netsim.NewLink(netsim.GbE())
		fault := UniformFaults(99, 0.3)
		conn := NewConn(ClientConfig{Fault: &fault})
		cl := NewMDSClient(conn, "mds", srv, link)
		conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
		for i := 0; i < 64; i++ {
			if _, err := cl.Create(srv.Root(), "f"+string(rune('0'+i%10))+string(rune('a'+i/10))); err != nil {
				t.Fatal(err)
			}
		}
		var faults int64
		for _, s := range reg.Snapshot() {
			if s.Name == "rpc_faults" {
				faults += s.Value
			}
		}
		return faults, link.Stats(), srv.Stats().RPCs
	}
	f1, l1, r1 := run()
	f2, l2, r2 := run()
	if f1 == 0 {
		t.Fatal("fault injector never fired at 30% rates over 64 ops")
	}
	if f1 != f2 || l1 != l2 || r1 != r2 {
		t.Fatalf("two identical faulty runs diverged: faults %d/%d, link %+v/%+v, rpcs %d/%d",
			f1, f2, l1, l2, r1, r2)
	}
}

// TestWriteReplyCountSurvivesReplay: a write whose response is lost is
// retried, and the retry is answered from the replay cache without running
// the server again. The extent count the write returns is the one its only
// execution read, so it equals the count an undisturbed twin returns.
func TestWriteReplyCountSurvivesReplay(t *testing.T) {
	reg := telemetry.NewRegistry()
	fault := FaultConfig{Seed: 7, Data: FaultRates{RespDrop: 0.5}}
	lossy := NewConn(ClientConfig{Fault: &fault})
	cl := NewOSTClient(lossy, "ost0", ost.NewServer(0, ost.DefaultConfig()), vanillaFactory, nil, 4096)
	lossy.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	twin := NewOSTClient(NewConn(ClientConfig{}), "ost0", ost.NewServer(0, ost.DefaultConfig()), vanillaFactory, nil, 4096)
	for _, c := range []*OSTClient{cl, twin} {
		for id := ost.ObjectID(1); id <= 2; id++ {
			if err := c.CreateObject(id, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two interleaved objects: each write past the first adds an extent.
	for blk := int64(0); blk < 64; blk += 8 {
		for id := ost.ObjectID(1); id <= 2; id++ {
			stream := core.StreamID{Client: uint32(id), PID: 1}
			want, err := twin.Write(id, stream, blk, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Write(id, stream, blk, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got != int(blk/8)+1 {
				t.Fatalf("write %d@%d returned %d extents, undisturbed twin %d, want %d", id, blk, got, want, blk/8+1)
			}
		}
	}
	if hits := counterValue(reg, "rpc_replay_hits", ""); hits == 0 {
		t.Fatal("no response was lost and replayed: the replay path is untested")
	}
}
