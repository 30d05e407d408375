// Package disk models a rotational disk at the granularity the MiF paper
// measures: positionings (seek + rotational settle) and sequential transfer.
//
// The paper's testbed uses fabric disks in a JBOD with ~170 MB/s sequential
// bandwidth; its central observation is that intra-file fragmentation forces
// the head to "move back and forth constantly among the different regions".
// A cost model with a distance-dependent positioning term and a bandwidth
// term reproduces exactly that mechanism, and the per-disk counters expose
// "disk positioning times" the way the paper counts them (by intercepting
// requests at the general block layer).
package disk

import (
	"fmt"
	"math"

	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Config holds the physical parameters of a simulated disk. The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	// BlockSize is the size of one block in bytes.
	BlockSize int64
	// TransferMBps is the sustained sequential transfer rate in MB/s
	// (1 MB = 1e6 bytes).
	TransferMBps float64
	// PositionBaseNs is the fixed cost of any non-sequential access:
	// head settle plus average rotational latency.
	PositionBaseNs sim.Ns
	// SeekMaxNs is the additional cost of a full-stroke seek. The seek
	// component scales with the square root of the distance fraction,
	// the classic short-seek curve.
	SeekMaxNs sim.Ns
	// NearThreshold is the distance in blocks under which an access is
	// charged a track-to-track cost (TrackSwitchNs) instead of a full
	// positioning. This models accesses that stay within the current
	// cylinder group.
	NearThreshold int64
	// TrackSwitchNs is the cost of a near (same-cylinder-neighbourhood)
	// reposition.
	TrackSwitchNs sim.Ns
}

// DefaultConfig returns parameters calibrated to the paper's testbed disks:
// ~170 MB/s sequential, ~7 ms average random positioning.
func DefaultConfig() Config {
	return Config{
		BlockSize:      4096,
		TransferMBps:   170,
		PositionBaseNs: 4 * sim.Millisecond, // settle + avg rotational latency
		SeekMaxNs:      9 * sim.Millisecond, // full stroke adds up to 9 ms
		NearThreshold:  256,                 // 1 MiB neighbourhood
		TrackSwitchNs:  800 * sim.Microsecond,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.BlockSize <= 0:
		return fmt.Errorf("disk: BlockSize must be positive, got %d", c.BlockSize)
	case c.TransferMBps <= 0:
		return fmt.Errorf("disk: TransferMBps must be positive, got %g", c.TransferMBps)
	case c.PositionBaseNs < 0 || c.SeekMaxNs < 0 || c.TrackSwitchNs < 0:
		return fmt.Errorf("disk: negative timing parameter")
	case c.NearThreshold < 0:
		return fmt.Errorf("disk: NearThreshold must be non-negative, got %d", c.NearThreshold)
	}
	return nil
}

// Stats are the per-disk counters accumulated across Access calls.
type Stats struct {
	// Positionings counts full random repositions (head moved beyond the
	// near threshold).
	Positionings int64
	// NearSwitches counts short repositions within the near threshold.
	NearSwitches int64
	// SeqAccesses counts accesses that continued exactly at the head
	// position and paid transfer cost only.
	SeqAccesses int64
	// Requests counts all Access calls.
	Requests int64
	// BlocksRead and BlocksWritten count transferred blocks by direction.
	BlocksRead    int64
	BlocksWritten int64
	// SeekDistanceBlocks accumulates the absolute head travel distance.
	SeekDistanceBlocks int64
	// BusyNs is the total simulated service time of this disk.
	BusyNs sim.Ns
}

// Bytes returns the total bytes transferred given the disk block size.
func (s Stats) Bytes(blockSize int64) int64 {
	return (s.BlocksRead + s.BlocksWritten) * blockSize
}

// Add returns the field-wise sum of two stat sets.
func (s Stats) Add(o Stats) Stats {
	s.Positionings += o.Positionings
	s.NearSwitches += o.NearSwitches
	s.SeqAccesses += o.SeqAccesses
	s.Requests += o.Requests
	s.BlocksRead += o.BlocksRead
	s.BlocksWritten += o.BlocksWritten
	s.SeekDistanceBlocks += o.SeekDistanceBlocks
	s.BusyNs += o.BusyNs
	return s
}

// Sub returns the field-wise difference s - o, used to isolate the counters
// of one benchmark phase.
func (s Stats) Sub(o Stats) Stats {
	s.Positionings -= o.Positionings
	s.NearSwitches -= o.NearSwitches
	s.SeqAccesses -= o.SeqAccesses
	s.Requests -= o.Requests
	s.BlocksRead -= o.BlocksRead
	s.BlocksWritten -= o.BlocksWritten
	s.SeekDistanceBlocks -= o.SeekDistanceBlocks
	s.BusyNs -= o.BusyNs
	return s
}

// Disk is one simulated rotational disk. Requests are serviced one at a
// time, which models a single spindle.
type Disk struct {
	cfg     Config
	nblocks int64
	head    int64
	stats   Stats

	nsPerBlock sim.Ns

	// serviceHist, when attached via Instrument, receives every Access
	// service time. Kept nil on uninstrumented disks so the hot path pays
	// one pointer test.
	serviceHist *telemetry.Histogram
}

// New creates a disk with nblocks blocks. It panics on an invalid
// configuration: a mis-built device model would silently corrupt every
// experiment downstream.
func New(cfg Config, nblocks int64) *Disk {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if nblocks <= 0 {
		panic(fmt.Sprintf("disk: nblocks must be positive, got %d", nblocks))
	}
	nsPerBlock := sim.Ns(float64(cfg.BlockSize) / (cfg.TransferMBps * 1e6) * float64(sim.Second))
	if nsPerBlock < 1 {
		nsPerBlock = 1
	}
	return &Disk{cfg: cfg, nblocks: nblocks, nsPerBlock: nsPerBlock}
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// NBlocks returns the disk capacity in blocks.
func (d *Disk) NBlocks() int64 { return d.nblocks }

// Head returns the current head position (the block after the last access).
func (d *Disk) Head() int64 {
	return d.head
}

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats {
	return d.stats
}

// ResetStats zeroes the counters without moving the head. Benchmark phases
// use it to measure each phase independently.
func (d *Disk) ResetStats() {
	d.stats = Stats{}
}

// Instrument publishes the disk's counters into the registry under the
// given labels and attaches a service-time histogram observed on every
// Access. The pre-existing Stats/ResetStats accessors keep working; the
// registry's counter values track them (including resets, since collectors
// read the live counters at snapshot time).
func (d *Disk) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	d.serviceHist = reg.Histogram("disk_service_ns", labels)
	reg.CounterFunc("disk_requests", labels, func() int64 { return d.Stats().Requests })
	reg.CounterFunc("disk_positionings", labels, func() int64 { return d.Stats().Positionings })
	reg.CounterFunc("disk_near_switches", labels, func() int64 { return d.Stats().NearSwitches })
	reg.CounterFunc("disk_seq_accesses", labels, func() int64 { return d.Stats().SeqAccesses })
	reg.CounterFunc("disk_blocks_read", labels, func() int64 { return d.Stats().BlocksRead })
	reg.CounterFunc("disk_blocks_written", labels, func() int64 { return d.Stats().BlocksWritten })
	reg.CounterFunc("disk_seek_distance_blocks", labels, func() int64 { return d.Stats().SeekDistanceBlocks })
	reg.CounterFunc("disk_busy_ns", labels, func() int64 { return d.Stats().BusyNs })
}

// Access services one request of count blocks starting at block start and
// returns its simulated service time. write selects the transfer direction
// for accounting only; the cost model is symmetric, matching the paper's
// near-identical sequential read/write rates (170.2 vs 171.3 MB/s).
//
// Access panics if the request falls outside the device: the callers are
// file systems, and a file system issuing out-of-range I/O is a bug that
// must not be absorbed into the timing model.
func (d *Disk) Access(start, count int64, write bool) sim.Ns {
	if start < 0 || count <= 0 || start+count > d.nblocks {
		panic(fmt.Sprintf("disk: access [%d,+%d) outside device of %d blocks", start, count, d.nblocks))
	}
	cost := d.positionCost(start)
	cost += count * d.nsPerBlock

	d.stats.Requests++
	if write {
		d.stats.BlocksWritten += count
	} else {
		d.stats.BlocksRead += count
	}
	d.stats.BusyNs += cost
	d.head = start + count
	if d.serviceHist != nil {
		d.serviceHist.Observe(cost)
	}
	return cost
}

// positionCost computes and accounts the head-movement cost of
// starting a transfer at block start.
func (d *Disk) positionCost(start int64) sim.Ns {
	dist := start - d.head
	if dist < 0 {
		dist = -dist
	}
	d.stats.SeekDistanceBlocks += dist
	switch {
	case dist == 0:
		d.stats.SeqAccesses++
		return 0
	case dist <= d.cfg.NearThreshold:
		d.stats.NearSwitches++
		return d.cfg.TrackSwitchNs
	default:
		d.stats.Positionings++
		frac := float64(dist) / float64(d.nblocks)
		if frac > 1 {
			frac = 1
		}
		return d.cfg.PositionBaseNs + sim.Ns(float64(d.cfg.SeekMaxNs)*math.Sqrt(frac))
	}
}

// SeekTo moves the head to block start without transferring data, charging
// the positioning cost. It models operations such as a journal head reset.
func (d *Disk) SeekTo(start int64) sim.Ns {
	if start < 0 || start >= d.nblocks {
		panic(fmt.Sprintf("disk: seek to %d outside device of %d blocks", start, d.nblocks))
	}
	cost := d.positionCost(start)
	d.stats.BusyNs += cost
	d.head = start
	if d.serviceHist != nil {
		d.serviceHist.Observe(cost)
	}
	return cost
}
