// Package replica gives every stripe component an N-way replica set: the
// placement policy that spreads copies across distinct IO servers, the
// client-side bookkeeping behind write fan-out and read steering, and the
// background re-replication engine that restores redundancy after an OST
// crash.
//
// The package is pure bookkeeping and pacing — it issues no RPCs and owns
// no servers. The PFS mount consults it on every replicated operation
// (which replicas to write, which single replica to read), reports what it
// observed (an endpoint timing out, a copy skipped because its OST is
// down), and drives the repair loop it plans. This keeps the manager
// deterministic and trivially testable, and keeps the lock order one-way:
// the mount lock is always taken first, the manager lock strictly inside
// it, and the manager never calls back up.
//
// Replica-set semantics. A component's set lists the OSTs that hold (or
// should hold) its object. Each member is clean, stale, or down:
//
//   - down is a per-OST suspicion flag, set the first time an RPC to the
//     endpoint fails at the transport layer (fail-stop detection by
//     traffic, not by oracle) and cleared only by an explicit revive;
//   - stale marks a copy that missed writes — because its OST was down
//     when the write fanned out, or because its own write attempt failed.
//     Stale copies keep receiving new writes when live (they cannot get
//     more wrong, and catching up is cheaper if they stayed warm) but are
//     never read until repaired.
//
// A component is under-replicated while its clean live copies number
// fewer than the configured replication factor; the repair engine works
// the set back to full strength one component at a time.
package replica

import (
	"fmt"
	"sync"

	"redbud/internal/inode"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Config tunes replication. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// RF is the replication factor: copies per stripe component. At 1 every
	// set is the stripe-aligned server alone and the mount builds no Manager
	// — same data path, sets of one.
	RF int
	// SliceBlocks is the largest number of blocks one repair step copies —
	// the preemption granularity, as in the defrag mover.
	SliceBlocks int64
	// RateBlocksPerSec throttles repair copies: a token bucket refilled at
	// this rate over simulated time. Zero disables the throttle.
	RateBlocksPerSec int64
	// BurstBlocks is the token bucket capacity; zero selects SliceBlocks.
	BurstBlocks int64
}

// DefaultConfig returns 3-way replication repaired in 256-block (1 MiB)
// slices, unthrottled.
func DefaultConfig() Config {
	return Config{RF: 3, SliceBlocks: 256}
}

// withDefaults fills unset tuning fields.
func (c Config) withDefaults() Config {
	if c.SliceBlocks <= 0 {
		c.SliceBlocks = 256
	}
	if c.BurstBlocks <= 0 {
		c.BurstBlocks = c.SliceBlocks
	}
	return c
}

// PlaceInput is one OST's placement telemetry: the capacity and load
// signals the spread policy scores, gathered by the client from the same
// gauges the registry publishes and shipped to the MDS with the placement
// request (Lustre-QOS style).
type PlaceInput struct {
	// OST is the server index.
	OST int
	// FreeBlocks is the allocator's free-space gauge.
	FreeBlocks int64
	// BusyNs is the device's cumulative busy time — the load signal.
	BusyNs sim.Ns
	// Down marks a server currently suspected dead; placement skips it.
	Down bool
}

// score rates one OST as a placement target: free capacity discounted by
// accumulated device load, so an emptier and idler server wins.
func score(in PlaceInput) float64 {
	return float64(in.FreeBlocks) / (1 + sim.Seconds(in.BusyNs))
}

// pickBest returns the best-scoring live OST not yet used, breaking score
// ties by rotating the preference order with rot so equal-score servers
// spread round-robin across components. Returns -1 when none qualifies.
func pickBest(in []PlaceInput, used func(int) bool, rot int) int {
	n := len(in)
	best, bestScore := -1, 0.0
	for k := 0; k < n; k++ {
		i := (rot + k) % n
		if in[i].Down || used(i) {
			continue
		}
		if s := score(in[i]); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Spread places rf replicas for each of comps stripe components over the
// given servers: replicas of one component always land on distinct OSTs,
// the component's stripe-aligned primary (OST c mod n) is kept when alive
// so striping parallelism survives, and the remaining copies go to the
// best-scoring live servers. When fewer than rf servers are alive the set
// comes back short (a degraded create, repaired once capacity returns);
// a component with no live server at all is an error.
func Spread(rf, comps int, in []PlaceInput) ([][]int, error) {
	n := len(in)
	if rf < 1 || comps < 1 {
		return nil, fmt.Errorf("replica: invalid shape rf=%d comps=%d", rf, comps)
	}
	if rf > n {
		return nil, fmt.Errorf("replica: rf=%d exceeds %d OSTs", rf, n)
	}
	sets := make([][]int, comps)
	for c := 0; c < comps; c++ {
		var set []int
		used := make([]bool, n)
		if primary := c % n; !in[primary].Down {
			set = append(set, primary)
			used[primary] = true
		}
		for len(set) < rf {
			i := pickBest(in, func(i int) bool { return used[i] }, c)
			if i < 0 {
				break
			}
			set = append(set, i)
			used[i] = true
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("replica: no live OST for component %d", c)
		}
		sets[c] = set
	}
	return sets, nil
}

// Key names one stripe component of one file.
type Key struct {
	Ino  inode.Ino
	Comp int
}

// comp is one component's replica-set state.
type comp struct {
	obj      ost.ObjectID
	replicas []int
	stale    map[int]bool
}

// Stats are the manager's counters, all monotonic.
type Stats struct {
	// FanoutWrites counts the extra copies written beyond the first —
	// the wire amplification replication buys durability with.
	FanoutWrites int64
	// SkippedWrites counts per-replica writes not issued because the
	// target OST was down (the copy went stale instead).
	SkippedWrites int64
	// SteeredReads counts read pieces routed by load steering.
	SteeredReads int64
	// Failovers counts reads retried on another replica after an
	// RPC-layer failure.
	Failovers int64
	// OSTDownEvents counts distinct down transitions detected.
	OSTDownEvents int64
	// RepairsStarted/RepairsDone count re-replication jobs; RepairBlocks
	// and RepairSlices the copy work inside them.
	RepairsStarted int64
	RepairsDone    int64
	RepairBlocks   int64
	RepairSlices   int64
	// Preempted counts repair steps that yielded to queued foreground
	// requests, Throttled steps denied by the token bucket.
	Preempted int64
	Throttled int64
}

// Manager is the client-side replica table of one mount. Every method is
// safe for concurrent use, but the mount serializes operational calls
// under its own lock anyway; the manager lock exists for the registry's
// gauge snapshots.
type Manager struct {
	cfg Config
	n   int

	mu        sync.Mutex
	down      []bool
	downCount int64
	comps     map[Key]*comp
	order     []Key // insertion order: files are created in ino order
	underRepl int64
	job       *job
	stats     Stats
	steered   []int64 // per-OST reads routed there by steering

	// Token bucket over simulated time, as in the defrag mover.
	tokens  float64
	lastNs  sim.Ns
	timeSrc func() sim.Ns

	now    func() sim.Ns
	events *telemetry.EventLog
}

// NewManager builds the replica table for a mount of n IO servers.
func NewManager(cfg Config, n int) *Manager {
	return &Manager{
		cfg:     cfg.withDefaults(),
		n:       n,
		down:    make([]bool, n),
		comps:   make(map[Key]*comp),
		steered: make([]int64, n),
		timeSrc: func() sim.Ns { return 0 },
		now:     func() sim.Ns { return 0 },
	}
}

// RF returns the configured replication factor.
func (m *Manager) RF() int { return m.cfg.RF }

// SetClock points event timestamps at the mount's trace clock.
func (m *Manager) SetClock(fn func() sim.Ns) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fn == nil {
		fn = func() sim.Ns { return 0 }
	}
	m.now = fn
}

// SetTimeSource sets the simulated-time source the repair token bucket
// refills against (the mount wires the summed device busy time, the same
// currency the defrag throttle uses).
func (m *Manager) SetTimeSource(fn func() sim.Ns) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timeSrc = fn
}

// Instrument publishes the layer=replica metrics and routes events into
// the registry's event log.
func (m *Manager) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	m.mu.Lock()
	m.events = reg.Events()
	m.mu.Unlock()
	reg.GaugeFunc("replica_under_replicated", labels, m.UnderReplicated)
	reg.GaugeFunc("replica_osts_down", labels, m.DownCount)
	reg.CounterFunc("replica_fanout_writes", labels, func() int64 { return m.Stats().FanoutWrites })
	reg.CounterFunc("replica_skipped_writes", labels, func() int64 { return m.Stats().SkippedWrites })
	reg.CounterFunc("replica_failovers", labels, func() int64 { return m.Stats().Failovers })
	reg.CounterFunc("replica_ost_down_events", labels, func() int64 { return m.Stats().OSTDownEvents })
	reg.CounterFunc("replica_repairs_started", labels, func() int64 { return m.Stats().RepairsStarted })
	reg.CounterFunc("replica_repairs_done", labels, func() int64 { return m.Stats().RepairsDone })
	reg.CounterFunc("replica_repair_blocks", labels, func() int64 { return m.Stats().RepairBlocks })
	reg.CounterFunc("replica_repair_slices", labels, func() int64 { return m.Stats().RepairSlices })
	reg.CounterFunc("replica_repair_preempted", labels, func() int64 { return m.Stats().Preempted })
	reg.CounterFunc("replica_repair_throttled", labels, func() int64 { return m.Stats().Throttled })
	for i := 0; i < m.n; i++ {
		i := i
		reg.CounterFunc("replica_steered_reads", labels.With("ost", fmt.Sprint(i)),
			func() int64 { return m.SteeredReads(i) })
	}
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// SteeredReads returns how many read pieces steering routed to OST i.
func (m *Manager) SteeredReads(i int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steered[i]
}

// UnderReplicated returns the number of components with fewer clean live
// copies than the replication factor.
func (m *Manager) UnderReplicated() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.underRepl
}

// FullyReplicated reports whether every component is at full strength.
func (m *Manager) FullyReplicated() bool { return m.UnderReplicated() == 0 }

// Down reports whether OST i is currently suspected dead.
func (m *Manager) Down(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[i]
}

// DownCount returns how many OSTs are currently suspected dead.
func (m *Manager) DownCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.downCount
}

// Components returns the number of tracked components.
func (m *Manager) Components() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.comps)
}

// ReplicaSet returns a component's replica OSTs and object, for tests and
// inspection tooling.
func (m *Manager) ReplicaSet(ino inode.Ino, c int) ([]int, ost.ObjectID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok {
		return nil, 0, false
	}
	return append([]int(nil), cp.replicas...), cp.obj, true
}

// cleanLiveLocked counts a component's readable copies.
func (m *Manager) cleanLiveLocked(c *comp) int {
	n := 0
	for _, r := range c.replicas {
		if !m.down[r] && !c.stale[r] {
			n++
		}
	}
	return n
}

// recountLocked recomputes the under-replicated gauge and emits its
// transition events.
func (m *Manager) recountLocked() {
	var cnt int64
	for _, k := range m.order {
		c := m.comps[k]
		if m.cleanLiveLocked(c) < m.cfg.RF {
			cnt++
		}
	}
	prev := m.underRepl
	m.underRepl = cnt
	if prev == 0 && cnt > 0 {
		m.events.Emit(m.now(), "replica", "under-replicated", fmt.Sprintf("%d components below rf=%d", cnt, m.cfg.RF))
	} else if prev > 0 && cnt == 0 {
		m.events.Emit(m.now(), "replica", "redundancy-restored", fmt.Sprintf("all components back at rf=%d", m.cfg.RF))
	}
}

// Add registers a freshly created component. Members down at create time
// hold no object yet and start stale (the repair engine will build them).
func (m *Manager) Add(ino inode.Ino, c int, obj ost.ObjectID, replicas []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := &comp{obj: obj, replicas: append([]int(nil), replicas...), stale: make(map[int]bool)}
	for _, r := range cp.replicas {
		if m.down[r] {
			cp.stale[r] = true
		}
	}
	k := Key{Ino: ino, Comp: c}
	m.comps[k] = cp
	m.order = append(m.order, k)
	m.recountLocked()
}

// Remove forgets every component of a deleted file, aborting any repair
// running against it.
func (m *Manager) Remove(ino inode.Ino) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.job != nil && m.job.desc.Key.Ino == ino {
		m.job = nil
	}
	kept := m.order[:0]
	for _, k := range m.order {
		if k.Ino == ino {
			delete(m.comps, k)
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
	m.recountLocked()
}

// WriteTargets returns the component's object and the replicas a write
// should fan out to: every live member, stale included. Members skipped
// because their OST is down go (or stay) stale.
func (m *Manager) WriteTargets(ino inode.Ino, c int) (ost.ObjectID, []int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok {
		return 0, nil, fmt.Errorf("replica: unknown component ino=%d comp=%d", uint64(ino), c)
	}
	var targets []int
	changed := false
	for _, r := range cp.replicas {
		if m.down[r] {
			m.stats.SkippedWrites++
			if !cp.stale[r] {
				cp.stale[r] = true
				changed = true
			}
			continue
		}
		targets = append(targets, r)
	}
	if len(targets) > 1 {
		m.stats.FanoutWrites += int64(len(targets) - 1)
	}
	if changed {
		m.recountLocked()
	}
	return cp.obj, targets, nil
}

// MarkStale records that replica r of the component missed a write (its
// own write attempt failed); it is excluded from reads until repaired.
func (m *Manager) MarkStale(ino inode.Ino, c, r int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok || cp.stale[r] {
		return
	}
	cp.stale[r] = true
	m.recountLocked()
}

// MarkDown records transport-level suspicion of OST i: every read steers
// away from it and every write skips it until MarkUp.
func (m *Manager) MarkDown(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[i] {
		return
	}
	m.down[i] = true
	m.downCount++
	m.stats.OSTDownEvents++
	m.events.Emit(m.now(), "replica", "ost-down", fmt.Sprintf("ost%d unreachable", i))
	m.recountLocked()
}

// MarkUp clears the suspicion after an explicit revive. Copies that went
// stale while the server was away stay stale until repaired.
func (m *Manager) MarkUp(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.down[i] {
		return
	}
	m.down[i] = false
	m.downCount--
	m.events.Emit(m.now(), "replica", "ost-up", fmt.Sprintf("ost%d revived", i))
	m.recountLocked()
}

// SteerRead picks the replica a read piece should go to: the live, clean,
// not-yet-tried member whose device has accumulated the least busy time
// (ties to the lowest index). ok is false when no readable copy remains.
func (m *Manager) SteerRead(ino inode.Ino, c int, tried []int, load func(int) sim.Ns) (int, ost.ObjectID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok {
		return 0, 0, false
	}
	best, bestLoad := -1, sim.Ns(0)
	for _, r := range cp.replicas {
		if m.down[r] || cp.stale[r] || contains(tried, r) {
			continue
		}
		l := load(r)
		if best < 0 || l < bestLoad {
			best, bestLoad = r, l
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	m.steered[best]++
	m.stats.SteeredReads++
	return best, cp.obj, true
}

// MemberState describes one replica-set member for inspection and for the
// mount's per-replica maintenance loop (truncate, fsync, close, delete).
type MemberState struct {
	OST   int
	Down  bool
	Stale bool
}

// Members returns the component's object and per-member state.
func (m *Manager) Members(ino inode.Ino, c int) ([]MemberState, ost.ObjectID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok {
		return nil, 0, false
	}
	out := make([]MemberState, 0, len(cp.replicas))
	for _, r := range cp.replicas {
		out = append(out, MemberState{OST: r, Down: m.down[r], Stale: cp.stale[r]})
	}
	return out, cp.obj, true
}

// ReadReplica returns the component's first clean live member — the pick
// for bookkeeping queries (extent counts, layout summaries) that should
// not perturb the steering counters. ok is false when none is readable.
func (m *Manager) ReadReplica(ino inode.Ino, c int) (int, ost.ObjectID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.comps[Key{Ino: ino, Comp: c}]
	if !ok {
		return 0, 0, false
	}
	for _, r := range cp.replicas {
		if !m.down[r] && !cp.stale[r] {
			return r, cp.obj, true
		}
	}
	return 0, 0, false
}

// NoteFailover records a read abandoning replica r after an RPC failure.
func (m *Manager) NoteFailover(ino inode.Ino, c, r int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Failovers++
	m.events.Emit(m.now(), "replica", "failover",
		fmt.Sprintf("read ino=%d comp=%d away from ost%d", uint64(ino), c, r))
}

// contains reports whether s holds v (replica sets are tiny).
func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
