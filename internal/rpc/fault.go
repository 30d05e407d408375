package rpc

import (
	"sync"

	"redbud/internal/sim"
)

// FaultRates are the per-op-class injection probabilities.
type FaultRates struct {
	// Drop is the probability the request is lost before reaching the
	// server (the server never executes it).
	Drop float64
	// RespDrop is the probability the response is lost after the server
	// executed the request — the case the endpoints' replay cache exists
	// for.
	RespDrop float64
	// Error is the probability of a transient server/transport failure
	// (returned as a retriable *Error without executing the request).
	Error float64
	// Delay is the probability the exchange is slowed by a uniformly
	// random extra latency in (0, MaxDelayNs].
	Delay float64
	// MaxDelayNs bounds the injected delay.
	MaxDelayNs sim.Ns
}

// FaultConfig seeds the deterministic fault injector and sets the rates
// per op class. All randomness comes from one sim.Rand seeded here —
// never from global math/rand state — so a faulty run replays
// bit-identically.
type FaultConfig struct {
	Seed    uint64
	Meta    FaultRates
	Data    FaultRates
	Control FaultRates
}

// UniformFaults is the tooling shorthand: every class drops requests at
// rate p and responses at p/2, with no errors or delays.
func UniformFaults(seed uint64, p float64) FaultConfig {
	r := FaultRates{Drop: p, RespDrop: p / 2}
	return FaultConfig{Seed: seed, Meta: r, Data: r, Control: r}
}

// rates returns the class's configured rates.
func (c *FaultConfig) rates(cl Class) FaultRates {
	switch cl {
	case ClassMeta:
		return c.Meta
	case ClassData:
		return c.Data
	default:
		return c.Control
	}
}

// injector is the seeded fault source behind ClientConfig.Fault. Every
// attempt that passes the blackhole check draws a fixed number of variates,
// so the fault sequence depends only on the attempt sequence.
type injector struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *sim.Rand
}

// draw samples the per-attempt variates under the lock (calls are
// serialized by the mount, but the lock keeps the injector safe under the
// race detector's eyes too).
func (in *injector) draw() (drop, respDrop, errp, delayp, delayFrac float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64(), in.rng.Float64(), in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
}
