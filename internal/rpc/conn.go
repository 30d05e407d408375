package rpc

import (
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

// server is what a route needs of the server behind it: the hook that nests
// the server's own spans under the rpc span while it serves.
type server interface {
	SetTraceParent(id telemetry.SpanID)
}

// route is one server on the connection: its address (named in errors,
// spans and metrics), the server, the network link that reaches it, its
// blackhole flag, and the replay cache in front of it. A client holds its
// route and passes it to every Call, so no call looks up an address.
type route struct {
	addr  string
	sym   telemetry.Sym // addr as a span attribute value
	srv   server
	link  *netsim.Link
	down  bool
	cache *replayCache
}

// Conn is one client's connection: the routes its clients registered, the
// retry policy, the optional fault injector, and the XID allocator that
// gives every logical call a transaction identity reused across its
// retries — the key the routes' replay caches deduplicate on. The tracer
// whose clock the connection advances (wire transfers, injected delays,
// retry timeouts) and the layer=rpc metrics sink are plain fields; with
// neither attached every advance and every count is a no-op.
type Conn struct {
	policy      RetryPolicy
	fault       *injector // nil on fault-free connections
	tracer      *telemetry.Tracer
	m           *metrics
	traceParent telemetry.SpanID
	routes      map[string]*route
	nextXID     uint64
}

// NewConn builds a connection per the config; NewMDSClient and
// NewOSTClient add its routes.
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

// register routes addr to a server over the given link and returns the
// route for the client to keep. A nil link means the server is reached for
// free (tests); wire charging is skipped. The address stays in the table
// only for Crash, Revive and Instrument.
func (c *Conn) register(addr string, srv server, link *netsim.Link) *route {
	rt := &route{addr: addr, sym: telemetry.Intern(addr), srv: srv, link: link, cache: newReplayCache()}
	c.routes[addr] = rt
	return rt
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
// and per-route replay-cache hits.
func (c *Conn) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	c.m = newMetrics(reg, labels)
	for addr, rt := range c.routes {
		cache := rt.cache
		reg.CounterFunc("rpc_replay_hits", labels.With("addr", addr),
			func() int64 { return cache.hits })
	}
}

// Crash blackholes addr: every later attempt toward it is dropped before
// reaching the server — meta, data and control alike, a solid wall of
// timeouts rather than sporadic loss — until Revive.
func (c *Conn) Crash(addr string) {
	if rt := c.routes[addr]; rt != nil {
		rt.down = true
	}
}

// Revive lifts a blackhole. The caller owns any server-side restart
// semantics; the connection only reopens the path.
func (c *Conn) Revive(addr string) {
	if rt := c.routes[addr]; rt != nil {
		rt.down = false
	}
}

// Call sends one logical request over route rt: it allocates the XID and
// runs the retry loop, every attempt reusing the XID. reqSize is the
// request leg's wire size; exec runs the server call at most once — a
// retry of an executed XID is answered from the route's replay cache —
// keeps its results in the caller's variables, and returns the response
// leg's wire size (a failed call's response is sized by its class
// instead). A lost message charges
// the full timeout before the re-send; a transient error re-sends after
// the backoff alone. When the retry budget runs out the call fails with
// KindTimeout (loss) or KindUnavailable (persistent transient failure).
// Server application errors are never retried. exec is only called, never
// kept, so the caller's closure stays on its stack.
func (c *Conn) Call(rt *route, op Op, reqSize int64, exec func() (respSize int64, err error)) error {
	c.nextXID++
	xid := c.nextXID
	p := c.policy
	backoff := p.BackoffNs
	for attempt := 0; ; attempt++ {
		lost, err := c.attempt(rt, xid, op, reqSize, exec)
		if !lost && err == nil {
			if attempt > 0 {
				c.m.recovery(c.tracer.Now(), op)
			}
			return nil
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
			return err
		} else {
			kind, cause = KindUnavailable, re
		}
		if attempt >= p.MaxRetries {
			c.m.exhaust(c.tracer.Now(), op)
			return &ExhaustedError{Op: op, Addr: rt.addr, Kind: kind, Attempts: attempt + 1, Cause: cause}
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
func (c *Conn) attempt(rt *route, xid uint64, op Op, reqSize int64, exec func() (int64, error)) (lost bool, err error) {
	if rt.down {
		c.m.fault(c.tracer.Now(), "blackhole", op)
		return true, nil
	}
	var r FaultRates // zero without an injector: response loss never fires
	var respDrop float64
	if c.fault != nil {
		r = c.fault.cfg.rates(op.Class())
		var drop, errp, delayp, delayFrac float64
		drop, respDrop, errp, delayp, delayFrac = c.fault.draw()
		if drop < r.Drop {
			c.m.fault(c.tracer.Now(), "drop", op)
			return true, nil
		}
		if errp < r.Error {
			c.m.fault(c.tracer.Now(), "error", op)
			return false, &Error{Op: op, Addr: rt.addr, Kind: KindUnavailable}
		}
		if delayp < r.Delay && r.MaxDelayNs > 0 {
			c.m.fault(c.tracer.Now(), "delay", op)
			c.tracer.Advance(sim.Ns(delayFrac*float64(r.MaxDelayNs)) + 1)
		}
	}
	err = c.exchange(rt, xid, op, reqSize, exec)
	if err == nil && respDrop < r.RespDrop {
		c.m.fault(c.tracer.Now(), "resp-drop", op)
		return true, nil
	}
	return false, err
}

// Span layers, span name and attribute keys, interned once per process; the
// rpc span names are the ops' symbols (opSyms).
var (
	layerRPC     = telemetry.Intern("rpc")
	layerNet     = telemetry.Intern("net")
	spanTransfer = telemetry.Intern("transfer")
	attrAddr     = telemetry.Intern("addr")
	attrBytes    = telemetry.Intern("bytes")
)

// exchange puts one request/response pair on the wire: request leg, the
// server call through the route's replay cache (server spans nested under
// the "rpc" span), response leg.
func (c *Conn) exchange(rt *route, xid uint64, op Op, reqSize int64, exec func() (int64, error)) error {
	var sp telemetry.ActiveSpan
	var begin sim.Ns
	parent := c.traceParent
	if tr := c.tracer; tr != nil {
		sp = tr.Begin(layerRPC, opSyms[op], parent)
		sp.Annotate(attrAddr, rt.sym)
		begin = tr.Now()
		parent = sp.ID()
		rt.srv.SetTraceParent(parent)
		defer rt.srv.SetTraceParent(0)
	}
	c.transfer(rt.link, reqSize, parent)
	respSize, err := rt.cache.serve(xid, exec)
	if err != nil {
		respSize = errRespSize(op)
	}
	c.transfer(rt.link, respSize, parent)
	dur := sim.Ns(-1)
	if tr := c.tracer; tr != nil {
		dur = tr.Now() - begin
		sp.End()
	}
	c.m.call(op, dur, err != nil)
	return err
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
	sp := c.tracer.Begin(layerNet, spanTransfer, parent)
	cost := link.Transfer(bytes)
	c.tracer.Advance(cost)
	sp.AnnotateInt(attrBytes, int64(bytes))
	sp.End()
}
