package rpc

import (
	"errors"
	"strings"
	"testing"
)

// TestExhaustedErrorWrapsLastTransientCause pins the retry-budget error
// contract: a call that gives up on persistent transient failures returns
// a typed *ExhaustedError that (a) matches the ErrRetriesExhausted
// sentinel, (b) unwraps to the final attempt's retriable *Error, and (c)
// counts every wire attempt. Callers stop pattern-matching a generic
// *Error and can tell "we stopped asking" from "the server said no".
func TestExhaustedErrorWrapsLastTransientCause(t *testing.T) {
	srv := newMDS(t)
	fault := FaultConfig{Seed: 3, Meta: FaultRates{Error: 1}}
	policy := RetryPolicy{MaxRetries: 2}
	conn := NewConn(ClientConfig{Fault: &fault, Retry: &policy})
	cl := NewMDSClient(conn, "mds", srv, nil)

	_, err := cl.Create(srv.Root(), "doomed")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want errors.Is(err, ErrRetriesExhausted)", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %T %v, want *ExhaustedError", err, err)
	}
	if ex.Kind != KindUnavailable {
		t.Fatalf("Kind = %s, want %s (persistent transient failure)", ex.Kind, KindUnavailable)
	}
	if ex.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (first try + 2 retries)", ex.Attempts)
	}
	var cause *Error
	if !errors.As(err, &cause) || !cause.Transient() {
		t.Fatalf("cause = %v, want the last transient *Error through errors.As", ex.Cause)
	}
	if !strings.Contains(ex.Error(), "retries exhausted") {
		t.Fatalf("message %q must name the exhaustion", ex.Error())
	}
	if got := srv.Stats().RPCs; got != 0 {
		t.Fatalf("server executed %d RPCs, want 0 (every attempt failed before execution)", got)
	}
}

// TestExhaustedErrorLossHasNoCause: on pure message loss the client learns
// nothing beyond its own timeout — there is no inspectable cause, only the
// typed exhaustion with KindTimeout.
func TestExhaustedErrorLossHasNoCause(t *testing.T) {
	srv := newMDS(t)
	fault := FaultConfig{Seed: 3, Meta: FaultRates{Drop: 1}}
	policy := RetryPolicy{MaxRetries: 1}
	conn := NewConn(ClientConfig{Fault: &fault, Retry: &policy})
	cl := NewMDSClient(conn, "mds", srv, nil)

	_, err := cl.Create(srv.Root(), "lost")
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Kind != KindTimeout {
		t.Fatalf("err = %v, want ExhaustedError with KindTimeout", err)
	}
	if ex.Cause != nil {
		t.Fatalf("Cause = %v, want nil on silent loss", ex.Cause)
	}
	if errors.Unwrap(err) != nil {
		t.Fatalf("Unwrap = %v, want nil", errors.Unwrap(err))
	}
}
