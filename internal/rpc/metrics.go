package rpc

import (
	"sync"

	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// metrics is the layer=rpc instrumentation sink. A nil *metrics (registry
// never attached) is valid and inert.
type metrics struct {
	reg    *telemetry.Registry
	labels telemetry.Labels

	mu      sync.Mutex
	calls   map[Op]*telemetry.Counter
	errors  map[Op]*telemetry.Counter
	latency map[Op]*telemetry.Histogram
	faults  map[string]*telemetry.Counter

	retries    *telemetry.Counter
	timeouts   *telemetry.Counter
	recoveries *telemetry.Counter
	exhausted  *telemetry.Counter
}

// newMetrics binds the sink to a registry.
func newMetrics(reg *telemetry.Registry, labels telemetry.Labels) *metrics {
	return &metrics{
		reg:        reg,
		labels:     labels,
		calls:      make(map[Op]*telemetry.Counter),
		errors:     make(map[Op]*telemetry.Counter),
		latency:    make(map[Op]*telemetry.Histogram),
		faults:     make(map[string]*telemetry.Counter),
		retries:    reg.Counter("rpc_retries", labels),
		timeouts:   reg.Counter("rpc_timeouts", labels),
		recoveries: reg.Counter("rpc_recoveries", labels),
		exhausted:  reg.Counter("rpc_exhausted", labels),
	}
}

// call counts one completed call and, when a duration is known (tracer
// attached), observes the op latency.
func (m *metrics) call(op Op, dur sim.Ns, failed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c := m.calls[op]
	if c == nil {
		c = m.reg.Counter("rpc_calls", m.labels.With("op", string(op)))
		m.calls[op] = c
	}
	var e *telemetry.Counter
	if failed {
		e = m.errors[op]
		if e == nil {
			e = m.reg.Counter("rpc_errors", m.labels.With("op", string(op)))
			m.errors[op] = e
		}
	}
	var h *telemetry.Histogram
	if dur >= 0 {
		h = m.latency[op]
		if h == nil {
			h = m.reg.Histogram("rpc_call_ns", m.labels.With("op", string(op)))
			m.latency[op] = h
		}
	}
	m.mu.Unlock()
	c.Inc()
	if e != nil {
		e.Inc()
	}
	if h != nil {
		h.Observe(dur)
	}
}

// event records one structured rpc-layer event (the timestamp comes from
// the connection's tracer at the call site; 0 with no tracer attached).
func (m *metrics) event(at sim.Ns, kind, detail string) {
	if m == nil {
		return
	}
	m.reg.Events().Emit(at, "rpc", kind, detail)
}

// fault counts one injected fault by kind (drop, resp-drop, error, delay)
// and records it as a structured event against the faulted op.
func (m *metrics) fault(at sim.Ns, kind string, op Op) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c := m.faults[kind]
	if c == nil {
		c = m.reg.Counter("rpc_faults", m.labels.With("kind", kind))
		m.faults[kind] = c
	}
	m.mu.Unlock()
	c.Inc()
	m.event(at, kind, string(op))
}

// retry counts one re-sent request.
func (m *metrics) retry(at sim.Ns, op Op) {
	if m != nil {
		m.retries.Inc()
		m.event(at, "retry", string(op))
	}
}

// timeout counts one request that waited out the full RPC timeout.
func (m *metrics) timeout(at sim.Ns, op Op) {
	if m != nil {
		m.timeouts.Inc()
		m.event(at, "timeout", string(op))
	}
}

// recovery counts one call that failed at least once and then succeeded.
func (m *metrics) recovery(at sim.Ns, op Op) {
	if m != nil {
		m.recoveries.Inc()
		m.event(at, "recovery", string(op))
	}
}

// exhaust counts one call that gave up after the retry budget.
func (m *metrics) exhaust(at sim.Ns, op Op) {
	if m != nil {
		m.exhausted.Inc()
		m.event(at, "exhaust", string(op))
	}
}
