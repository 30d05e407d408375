package rpc

import (
	"errors"
	"testing"
)

// TestManualCrashBlackholesEndpoint drives the crash/revive API the
// failover tooling uses, on a connection with no fault injector: a crashed
// endpoint drops every request (a wall of timeouts, not sporadic loss),
// never revives by itself, and serves again the moment it is revived.
func TestManualCrashBlackholesEndpoint(t *testing.T) {
	srv := newMDS(t)
	policy := RetryPolicy{MaxRetries: 2}
	conn := NewConn(ClientConfig{Retry: &policy})
	cl := NewMDSClient(conn, "mds", srv, nil)

	if _, err := cl.Create(srv.Root(), "before"); err != nil {
		t.Fatal(err)
	}
	conn.Crash("mds")
	if !conn.Crashed("mds") {
		t.Fatal("Crash must mark the endpoint blackholed")
	}
	for i := 0; i < 8; i++ {
		_, err := cl.Create(srv.Root(), "during")
		var ex *ExhaustedError
		if !errors.As(err, &ex) || ex.Kind != KindTimeout {
			t.Fatalf("call %d to crashed endpoint: err = %v, want exhausted KindTimeout", i, err)
		}
	}
	if !conn.Crashed("mds") {
		t.Fatal("a crash must never revive by itself")
	}
	if got := srv.Stats().RPCs; got != 1 {
		t.Fatalf("server executed %d RPCs, want 1 (nothing during the outage)", got)
	}
	conn.Revive("mds")
	if _, err := cl.Create(srv.Root(), "after"); err != nil {
		t.Fatalf("revived endpoint failed: %v", err)
	}
}
