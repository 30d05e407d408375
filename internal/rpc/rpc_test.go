package rpc

import (
	"errors"
	"strings"
	"testing"

	"redbud/internal/core"
	"redbud/internal/extent"
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

func TestMetaMessagesRideSingleCells(t *testing.T) {
	msgs := []Msg{
		&MkdirReq{Parent: 1, Name: "dir"}, &MkdirResp{},
		&CreateReq{Parent: 1, Name: "checkpoint.0001"}, &CreateResp{},
		&LookupReq{Parent: 1, Name: "a"}, &LookupResp{},
		&UnlinkReq{Parent: 1, Name: "a"}, &UnlinkResp{},
		&OpenGetLayoutReq{Parent: 1, Name: "a"}, &OpenGetLayoutResp{},
		&SetLayoutReq{Ino: 1}, &SetLayoutResp{},
	}
	for _, m := range msgs {
		if got := m.WireSize(); got != CellBytes {
			t.Errorf("%T wire size = %d, want one %d-byte cell", m, got, CellBytes)
		}
	}
	// Bulk layouts grow beyond the single cell.
	long := make([]extent.Extent, 100)
	for _, m := range []Msg{&SetLayoutReq{Ino: 1, Layout: long}, &OpenGetLayoutResp{Ino: 1, Layout: long}} {
		if got := m.WireSize(); got <= CellBytes {
			t.Errorf("100-extent %T wire size = %d, want > one cell", m, got)
		}
	}
}

func TestDataMessagesChargePayloadOneWay(t *testing.T) {
	w := &ObjWriteReq{Count: 64, Payload: 64 * 4096}
	if w.WireSize() != 64*4096 {
		t.Errorf("write request carries %d bytes, want payload %d", w.WireSize(), 64*4096)
	}
	if (&ObjWriteResp{}).WireSize() != 0 {
		t.Error("write ack must be free")
	}
	if (&ObjReadReq{Payload: 4096}).WireSize() != 0 {
		t.Error("read descriptor must be free")
	}
	if got := (&ObjReadResp{Payload: 4096}).WireSize(); got != 4096 {
		t.Errorf("read response carries %d bytes, want payload 4096", got)
	}
	for _, m := range []Msg{
		&ObjCreateReq{}, &ObjFlushReq{}, &ObjFsyncReq{}, &ObjTruncateReq{},
		&ObjDeleteReq{}, &ObjCloseReq{}, &ObjExtCountReq{}, &ObjExtentsReq{},
		&MDSSyncReq{}, &ExtentChurnReq{Units: 10},
	} {
		if m.WireSize() != 0 {
			t.Errorf("%T is control plane, wire size must be 0", m)
		}
	}
}

func TestReplayCacheMakesRetriesIdempotent(t *testing.T) {
	srv := newMDS(t)
	ep := NewMDSEndpoint("mds", srv)
	req := &CreateReq{Parent: srv.Root(), Name: "once"}
	first, err := ep.Serve(42, req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ep.Serve(42, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.(*CreateResp).Ino != again.(*CreateResp).Ino {
		t.Fatal("replayed create returned a different inode")
	}
	if got := srv.Stats().RPCs; got != 1 {
		t.Fatalf("server executed %d RPCs, want 1 (replay must not re-execute)", got)
	}
	if ep.ReplayHits() != 1 {
		t.Fatalf("replay hits = %d, want 1", ep.ReplayHits())
	}
	// A fresh xid executes for real.
	if _, err := ep.Serve(43, &CreateReq{Parent: srv.Root(), Name: "twice"}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().RPCs; got != 2 {
		t.Fatalf("server executed %d RPCs, want 2", got)
	}
}

func TestNetTransportChargesLinkPerDirection(t *testing.T) {
	srv := newMDS(t)
	link := netsim.NewLink(netsim.GbE())
	conn := NewConn(ClientConfig{})
	conn.Register("mds", NewMDSEndpoint("mds", srv), link)
	cl := NewMDSClient(conn, "mds")
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

func TestOSTDataPathChargesPayload(t *testing.T) {
	srv := ost.NewServer(0, ost.DefaultConfig())
	link := netsim.NewLink(netsim.FC400())
	conn := NewConn(ClientConfig{})
	conn.Register("ost0", NewOSTEndpoint("ost0", srv, vanillaFactory), link)
	blockSize := ost.DefaultConfig().Disk.BlockSize
	cl := NewOSTClient(conn, "ost0", blockSize)

	if err := cl.CreateObject(1, 0); err != nil {
		t.Fatal(err)
	}
	if st := link.Stats(); st.Messages != 0 {
		t.Fatalf("object create is control plane, charged %+v", st)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	if err := cl.Write(1, stream, 0, 64); err != nil {
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
	conn.Register("mds", NewMDSEndpoint("mds", srv), netsim.NewLink(netsim.GbE()))
	conn.SetTracer(tr)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	cl := NewMDSClient(conn, "mds")

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
	conn.Register("mds", NewMDSEndpoint("mds", srv), nil)
	cl := NewMDSClient(conn, "mds")
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
	conn.Register("mds", NewMDSEndpoint("mds", srv), nil)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	cl := NewMDSClient(conn, "mds")
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
	conn2.Register("mds", NewMDSEndpoint("mds", srv), nil)
	if _, err := NewMDSClient(conn2, "mds").Create(srv.Root(), "dropped2"); err == nil {
		t.Fatal("sentinel MaxRetries policy must fail on the first drop")
	}
}

func TestApplicationErrorsPassThroughWithoutRetry(t *testing.T) {
	srv := newMDS(t)
	reg := telemetry.NewRegistry()
	conn := NewConn(ClientConfig{})
	conn.Register("mds", NewMDSEndpoint("mds", srv), nil)
	conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
	cl := NewMDSClient(conn, "mds")
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
		conn.Register("mds", NewMDSEndpoint("mds", srv), link)
		conn.Instrument(reg, telemetry.Labels{"layer": "rpc"})
		cl := NewMDSClient(conn, "mds")
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
