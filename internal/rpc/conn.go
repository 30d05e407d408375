package rpc

import (
	"sync/atomic"

	"redbud/internal/netsim"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// ClientConfig selects how a client's connection behaves.
type ClientConfig struct {
	// Retry overrides the timeout/retry policy (DefaultRetryPolicy when
	// nil).
	Retry *RetryPolicy
	// Fault, when set, mounts the deterministic fault injector: every
	// attempt draws its variates before reaching the wire.
	Fault *FaultConfig
}

// route is one registered endpoint, the network link that reaches it, and
// its blackhole flag.
type route struct {
	ep   Endpoint
	link *netsim.Link
	down atomic.Bool
}

// Conn is one client's connection: the registered routes, the retry policy,
// the optional fault injector, and the XID allocator that gives every
// logical call a transaction identity reused across its retries — the key
// the endpoints' replay caches deduplicate on. The tracer whose clock the
// connection advances (wire transfers, injected delays, retry timeouts)
// and the layer=rpc metrics sink are plain fields; with neither attached
// every advance and every count is a no-op.
type Conn struct {
	policy      RetryPolicy
	fault       *injector // nil on fault-free connections
	tracer      *telemetry.Tracer
	m           *metrics
	traceParent telemetry.SpanID
	routes      map[string]*route
	nextXID     atomic.Uint64
}

// NewConn builds a connection per the config; Register adds endpoints.
func NewConn(cfg ClientConfig) *Conn {
	var policy RetryPolicy
	if cfg.Retry != nil {
		policy = *cfg.Retry
	}
	c := &Conn{policy: policy.withDefaults(), routes: make(map[string]*route)}
	if cfg.Fault != nil {
		c.fault = &injector{cfg: *cfg.Fault, rng: sim.NewRand(cfg.Fault.Seed)}
	}
	return c
}

// Register routes addr to an endpoint over the given link. A nil link
// means the endpoint is reached for free (tests); wire charging is
// skipped.
func (c *Conn) Register(addr string, ep Endpoint, link *netsim.Link) {
	c.routes[addr] = &route{ep: ep, link: link}
}

// SetTracer attaches (or with nil detaches) the span tracer the connection
// charges simulated time against.
func (c *Conn) SetTracer(t *telemetry.Tracer) { c.tracer = t }

// SetTraceParent declares the client-operation span under which the
// connection's rpc spans nest; zero clears it. Serialized by the mount like
// every call.
func (c *Conn) SetTraceParent(id telemetry.SpanID) { c.traceParent = id }

// Instrument publishes the layer=rpc metrics: per-op call counters and
// latency histograms, retry/timeout/recovery counters, fault counters,
// and per-endpoint replay-cache hits.
func (c *Conn) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	c.m = newMetrics(reg, labels)
	for addr, rt := range c.routes {
		ep := rt.ep
		reg.CounterFunc("rpc_replay_hits", labels.With("addr", addr),
			func() int64 { return ep.ReplayHits() })
	}
}

// Crash blackholes addr: every later attempt toward it is dropped before
// reaching the server — meta, data and control alike, a solid wall of
// timeouts rather than sporadic loss — until Revive.
func (c *Conn) Crash(addr string) {
	if rt := c.routes[addr]; rt != nil {
		rt.down.Store(true)
	}
}

// Revive lifts a blackhole. The caller owns any server-side restart
// semantics; the connection only reopens the path.
func (c *Conn) Revive(addr string) {
	if rt := c.routes[addr]; rt != nil {
		rt.down.Store(false)
	}
}

// Crashed reports whether addr is currently blackholed.
func (c *Conn) Crashed(addr string) bool {
	rt := c.routes[addr]
	return rt != nil && rt.down.Load()
}

// Call sends one logical request: it allocates the XID and runs the retry
// loop, every attempt reusing the XID. A lost message charges the full
// timeout before the re-send; a transient error re-sends after the backoff
// alone. When the retry budget runs out the call fails with KindTimeout
// (loss) or KindUnavailable (persistent transient failure). Server
// application errors are never retried.
func (c *Conn) Call(addr string, req Request) (Msg, error) {
	xid := c.nextXID.Add(1)
	op := req.RPCOp()
	p := c.policy
	backoff := p.BackoffNs
	for attempt := 0; ; attempt++ {
		resp, lost, err := c.attempt(addr, xid, op, req)
		if !lost && err == nil {
			if attempt > 0 {
				c.m.recovery(c.tracer.Now(), op)
			}
			return resp, nil
		}
		kind := KindTimeout
		var cause error
		if lost {
			// The message vanished: the client finds out by waiting out the
			// RPC timeout. There is no inspectable cause — the client
			// learned nothing beyond its own clock.
			c.tracer.Advance(p.TimeoutNs)
			c.m.timeout(c.tracer.Now(), op)
		} else if re, ok := err.(*Error); !ok || !re.Transient() {
			// Application errors and non-retriable RPC failures pass
			// through.
			return resp, err
		} else {
			kind, cause = KindUnavailable, re
		}
		if attempt >= p.MaxRetries {
			c.m.exhaust(c.tracer.Now(), op)
			return nil, &ExhaustedError{Op: op, Addr: addr, Kind: kind, Attempts: attempt + 1, Cause: cause}
		}
		c.m.retry(c.tracer.Now(), op)
		c.tracer.Advance(backoff)
		backoff = sim.Ns(float64(backoff) * p.BackoffFactor)
		if backoff > p.MaxBackoffNs {
			backoff = p.MaxBackoffNs
		}
	}
}

// attempt carries one try of an exchange: a blackholed route drops it;
// otherwise, with an injector, it draws the attempt's variates and applies
// at most one of request loss, transient error or response loss, plus an
// optional delay on exchanges that reach the server. lost reports a
// dropped request or response, which the client learns of only by timing
// out.
func (c *Conn) attempt(addr string, xid uint64, op Op, req Request) (resp Msg, lost bool, err error) {
	rt := c.routes[addr]
	if rt != nil && rt.down.Load() {
		c.m.fault(c.tracer.Now(), "blackhole", op)
		return nil, true, nil
	}
	var r FaultRates // zero without an injector: response loss never fires
	var respDrop float64
	if c.fault != nil {
		r = c.fault.cfg.rates(op.Class())
		var drop, errp, delayp, delayFrac float64
		drop, respDrop, errp, delayp, delayFrac = c.fault.draw()
		if drop < r.Drop {
			c.m.fault(c.tracer.Now(), "drop", op)
			return nil, true, nil
		}
		if errp < r.Error {
			c.m.fault(c.tracer.Now(), "error", op)
			return nil, false, &Error{Op: op, Addr: addr, Kind: KindUnavailable}
		}
		if delayp < r.Delay && r.MaxDelayNs > 0 {
			c.m.fault(c.tracer.Now(), "delay", op)
			c.tracer.Advance(sim.Ns(delayFrac*float64(r.MaxDelayNs)) + 1)
		}
	}
	if rt == nil {
		return nil, false, &Error{Op: op, Addr: addr, Kind: KindUnavailable}
	}
	resp, err = c.exchange(rt, addr, xid, op, req)
	if err == nil && respDrop < r.RespDrop {
		c.m.fault(c.tracer.Now(), "resp-drop", op)
		return nil, true, nil
	}
	return resp, false, err
}

// exchange puts one request/response pair on the wire: request leg,
// endpoint dispatch through its replay cache (server spans nested under
// the "rpc" span), response leg.
func (c *Conn) exchange(rt *route, addr string, xid uint64, op Op, req Request) (Msg, error) {
	var sp *telemetry.ActiveSpan
	var begin sim.Ns
	parent := c.traceParent
	if tr := c.tracer; tr != nil {
		sp = tr.Start("rpc", string(op), parent)
		sp.Annotate("addr", addr)
		begin = tr.Now()
		parent = sp.ID()
		rt.ep.SetTraceParent(parent)
		defer rt.ep.SetTraceParent(0)
	}
	c.transfer(rt.link, req.WireSize(), parent)
	resp, err := rt.ep.Serve(xid, req)
	respSize := errWireSize(op)
	if err == nil && resp != nil {
		respSize = resp.WireSize()
	}
	c.transfer(rt.link, respSize, parent)
	dur := sim.Ns(-1)
	if tr := c.tracer; tr != nil {
		dur = tr.Now() - begin
		sp.End()
	}
	c.m.call(op, dur, err != nil)
	return resp, err
}

// transfer charges one message leg to the link, recording a "net" span
// under the rpc span and advancing the timeline. Zero-size messages
// (control plane, ack directions) skip the link entirely.
func (c *Conn) transfer(link *netsim.Link, bytes int64, parent telemetry.SpanID) {
	if bytes <= 0 || link == nil {
		return
	}
	if c.tracer == nil {
		link.Transfer(bytes)
		return
	}
	sp := c.tracer.Start("net", "transfer", parent)
	cost := link.Transfer(bytes)
	c.tracer.Advance(cost)
	sp.AnnotateInt("bytes", int64(bytes))
	sp.End()
}

// call is the typed client helper: it narrows the response or fails with
// KindBadRequest on a protocol mismatch.
func call[T Msg](c *Conn, addr string, req Request) (T, error) {
	var zero T
	resp, err := c.Call(addr, req)
	if err != nil {
		return zero, err
	}
	out, ok := resp.(T)
	if !ok {
		return zero, &Error{Op: req.RPCOp(), Addr: addr, Kind: KindBadRequest}
	}
	return out, nil
}
