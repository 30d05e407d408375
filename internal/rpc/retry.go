package rpc

import "redbud/internal/sim"

// RetryPolicy is the client-side timeout/retry schedule. A lost message
// costs the caller the RPC timeout on the simulated clock; each re-send
// waits an exponentially growing backoff. Transient failures (injected
// errors) retry after the backoff without the timeout charge — the
// failure came back immediately. Server application errors are never
// retried.
type RetryPolicy struct {
	// TimeoutNs is how long the client waits for a response before
	// declaring the exchange lost.
	TimeoutNs sim.Ns
	// MaxRetries bounds the re-sends after the first attempt. Zero means
	// "unset" and takes the default (8); NoRetries (-1) disables re-sends
	// entirely, so the first drop or transient failure surfaces
	// immediately. Use NoRetryPolicy for a ready-made fail-fast policy.
	MaxRetries int
	// BackoffNs is the first retry's wait.
	BackoffNs sim.Ns
	// BackoffFactor multiplies the wait after each retry.
	BackoffFactor float64
	// MaxBackoffNs caps the wait.
	MaxBackoffNs sim.Ns
}

// NoRetries is the MaxRetries sentinel for "fail on the first loss". A
// plain 0 cannot express it: the zero value of RetryPolicy must keep
// meaning "all defaults", so 0 promotes to the default retry budget.
const NoRetries = -1

// NoRetryPolicy returns a fail-fast policy: default timeout, no re-sends.
// The first dropped message surfaces as KindTimeout, the first transient
// failure as KindUnavailable.
func NoRetryPolicy() RetryPolicy {
	p := DefaultRetryPolicy()
	p.MaxRetries = NoRetries
	return p
}

// DefaultRetryPolicy is tuned for the simulated cluster: the timeout
// comfortably clears the slowest fault-free metadata exchange, and eight
// doubling retries ride out percent-level loss rates.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		TimeoutNs:     50 * sim.Millisecond,
		MaxRetries:    8,
		BackoffNs:     1 * sim.Millisecond,
		BackoffFactor: 2,
		MaxBackoffNs:  200 * sim.Millisecond,
	}
}

// withDefaults fills the zero-valued fields from DefaultRetryPolicy and
// resolves the NoRetries sentinel (MaxRetries < 0) to zero re-sends.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.TimeoutNs <= 0 {
		p.TimeoutNs = def.TimeoutNs
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = def.MaxRetries
	} else if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BackoffNs <= 0 {
		p.BackoffNs = def.BackoffNs
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = def.BackoffFactor
	}
	if p.MaxBackoffNs <= 0 {
		p.MaxBackoffNs = def.MaxBackoffNs
	}
	return p
}
