// Package netsim models the cluster interconnects of the Redbud testbed:
// the GbE fabric between clients and the MDS ("communications between
// clients and MDS/OST all are GbE constructed by Catalyst 3750 Ethernet
// switches") and the FibreChannel data fabric ("each machine is connected
// to the 32 ports Silk Worm fabric switcher by its own 400MB/s point to
// point link").
//
// A Link charges per-message latency plus bandwidth-limited transfer time
// and accumulates busy time, so harnesses can fold network cost into an
// experiment's elapsed time (as max against the disk timelines: the
// network and the disks pipeline).
package netsim

import (
	"fmt"
	"strconv"

	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Config holds a link's physical parameters.
type Config struct {
	// LatencyNs is the per-message one-way latency.
	LatencyNs sim.Ns
	// BytesPerSec is the usable bandwidth.
	BytesPerSec float64
}

// GbE returns a gigabit-Ethernet link profile (the MDS fabric).
func GbE() Config {
	return Config{LatencyNs: 100 * sim.Microsecond, BytesPerSec: 117e6}
}

// FC400 returns a 400 MB/s FibreChannel link profile (the data fabric).
func FC400() Config {
	return Config{LatencyNs: 25 * sim.Microsecond, BytesPerSec: 400e6}
}

// Stats holds a link's accumulated counters.
type Stats struct {
	Messages int64
	Bytes    int64
	BusyNs   sim.Ns
}

// Link is one network path.
type Link struct {
	cfg   Config
	stats Stats

	// transferHist, when attached, observes every Transfer duration.
	transferHist *telemetry.Histogram
}

// NewLink builds a link. It panics on a non-positive bandwidth: a link
// with no capacity is a configuration bug.
func NewLink(cfg Config) *Link {
	if cfg.BytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth %g must be positive", cfg.BytesPerSec))
	}
	if cfg.LatencyNs < 0 {
		panic("netsim: negative latency")
	}
	return &Link{cfg: cfg}
}

// Transfer charges one message of the given payload size and returns its
// simulated duration.
func (l *Link) Transfer(bytes int64) sim.Ns {
	if bytes < 0 {
		bytes = 0
	}
	cost := l.cfg.LatencyNs + sim.Ns(float64(bytes)/l.cfg.BytesPerSec*float64(sim.Second))
	l.stats.Messages++
	l.stats.Bytes += bytes
	l.stats.BusyNs += cost
	if l.transferHist != nil {
		l.transferHist.Observe(cost)
	}
	return cost
}

// Stats returns a snapshot of the counters.
func (l *Link) Stats() Stats {
	return l.stats
}

// Reset zeroes the counters for a new measurement phase.
func (l *Link) Reset() {
	l.stats = Stats{}
}

// Instrument publishes the link counters into the registry under the given
// labels and attaches a per-transfer latency histogram.
func (l *Link) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	l.transferHist = reg.Histogram("net_transfer_ns", labels)
	reg.CounterFunc("net_messages", labels, func() int64 { return l.Stats().Messages })
	reg.CounterFunc("net_bytes", labels, func() int64 { return l.Stats().Bytes })
	reg.CounterFunc("net_busy_ns", labels, func() int64 { return l.Stats().BusyNs })
}

// Fabric is a set of per-client links sharing one profile — the
// point-to-point fabric of the testbed. The elapsed time of a phase where
// clients drive their links in parallel is the max busy time.
type Fabric struct {
	links []*Link
}

// NewFabric builds n identical links.
func NewFabric(cfg Config, n int) *Fabric {
	if n <= 0 {
		panic("netsim: fabric needs at least one link")
	}
	f := &Fabric{}
	for i := 0; i < n; i++ {
		f.links = append(f.links, NewLink(cfg))
	}
	return f
}

// Link returns client i's link.
func (f *Fabric) Link(i int) *Link { return f.links[i%len(f.links)] }

// Len returns the link count.
func (f *Fabric) Len() int { return len(f.links) }

// MaxBusy returns the largest per-link busy time.
func (f *Fabric) MaxBusy() sim.Ns {
	var max sim.Ns
	for _, l := range f.links {
		if b := l.Stats().BusyNs; b > max {
			max = b
		}
	}
	return max
}

// TotalStats sums the per-link counters.
func (f *Fabric) TotalStats() Stats {
	var total Stats
	for _, l := range f.links {
		s := l.Stats()
		total.Messages += s.Messages
		total.Bytes += s.Bytes
		total.BusyNs += s.BusyNs
	}
	return total
}

// Reset zeroes every link.
func (f *Fabric) Reset() {
	for _, l := range f.links {
		l.Reset()
	}
}

// Instrument instruments every member link, distinguishing them with a
// "link" label on top of the given base labels.
func (f *Fabric) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	for i, l := range f.links {
		l.Instrument(reg, labels.With("link", strconv.Itoa(i)))
	}
}
