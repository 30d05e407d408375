package core

import (
	"sort"

	"redbud/internal/alloc"
)

// OnDemandConfig holds the tunables of the on-demand preallocation
// algorithm (paper §3.C).
type OnDemandConfig struct {
	// Scale multiplies the window size at initialization
	// (write_size × Scale) and at each reiterative preallocation
	// (prev_size × Scale). The paper uses 2 or 4.
	Scale int64
	// MaxPreallocBlocks caps the sequential-window size
	// (max_preallocation_size, "tunable").
	MaxPreallocBlocks int64
	// MissThreshold is the layout_miss count at which a stream is
	// recognized as "workload other than a sequential one" and its
	// preallocation is turned off.
	MissThreshold int
}

// DefaultOnDemandConfig returns the configuration used throughout the
// evaluation: scale 4, 8 MiB window cap (2048 × 4 KiB blocks), and a miss
// threshold of 4.
func DefaultOnDemandConfig() OnDemandConfig {
	return OnDemandConfig{Scale: 4, MaxPreallocBlocks: 2048, MissThreshold: 4}
}

// OnDemandStats counts trigger activity for one file component.
type OnDemandStats struct {
	// LayoutMisses counts layout_miss trigger hits (including each
	// stream's first extend).
	LayoutMisses int64
	// PreallocHits counts pre_alloc_layout trigger hits (window
	// promotions).
	PreallocHits int64
	// InWindowWrites counts writes served from the current window with
	// no trigger hit.
	InWindowWrites int64
	// StreamsDisabled counts streams whose preallocation was turned off
	// by the miss threshold.
	StreamsDisabled int64
	// PreallocatedBlocks counts blocks persisted ahead of the data
	// actually written.
	PreallocatedBlocks int64
}

// streamState is the per-stream core data structure: the current window,
// the sequential window, and the miss counter.
type streamState struct {
	owner    alloc.Owner
	cur      Window // persistently preallocated
	seq      Window // temporarily reserved prediction range
	seqRange alloc.Range
	misses   int
	disabled bool
	winSize  int64 // size of the most recent preallocation
}

// OnDemand is the MiF on-demand preallocation policy for one file
// component: the file allocator "maintains both windows for each stream and
// any write workloads from different streams are thus not interleaved".
type OnDemand struct {
	cfg OnDemandConfig
	src BlockSource

	streams map[StreamID]*streamState
	stats   OnDemandStats
	scratch []Placement // reused result buffer; valid until the next Place
}

// NewOnDemand builds the policy over the given block source. Invalid
// configurations panic: the policy is constructed at mount/format time
// where a bad tunable is an operator bug.
func NewOnDemand(src BlockSource, cfg OnDemandConfig) *OnDemand {
	if cfg.Scale < 2 {
		panic("core: OnDemand Scale must be >= 2")
	}
	if cfg.MaxPreallocBlocks < 1 {
		panic("core: OnDemand MaxPreallocBlocks must be >= 1")
	}
	if cfg.MissThreshold < 1 {
		panic("core: OnDemand MissThreshold must be >= 1")
	}
	return &OnDemand{cfg: cfg, src: src, streams: make(map[StreamID]*streamState)}
}

// Name implements Policy.
func (p *OnDemand) Name() string { return "on-demand" }

// Stats returns a snapshot of the trigger counters.
func (p *OnDemand) Stats() OnDemandStats {
	return p.stats
}

// Streams returns the number of streams the policy has seen.
func (p *OnDemand) Streams() int {
	return len(p.streams)
}

// Place implements Policy. It runs the trigger-hit algorithm of Figure 2
// over the logical range, splitting the request where it straddles window
// boundaries.
func (p *OnDemand) Place(stream StreamID, logical, count, goal int64) ([]Placement, error) {
	if count <= 0 || logical < 0 {
		return nil, errInvalidRange(logical, count)
	}
	st, ok := p.streams[stream]
	if !ok {
		st = &streamState{owner: p.src.NewOwner()}
		p.streams[stream] = st
	}

	out := p.scratch[:0]
	for count > 0 {
		prev := len(out)
		var n int64
		var err error
		out, n, err = p.placeOnce(st, out, logical, count, goal)
		if err != nil {
			p.scratch = out
			return out, err
		}
		logical += n
		count -= n
		if len(out) > prev {
			last := out[len(out)-1]
			goal = last.Physical + last.Count
		}
	}
	p.scratch = out
	return out, nil
}

// placeOnce handles the largest prefix of [logical, logical+count) that
// falls into a single trigger case, appending the placements to out and
// returning it plus the number of logical blocks consumed.
func (p *OnDemand) placeOnce(st *streamState, out []Placement, logical, count, goal int64) ([]Placement, int64, error) {
	// Case 1: inside the current window — previous preallocation covers
	// the write; neither trigger hits.
	if st.cur.ContainsLogical(logical, 1) {
		n := count
		if rem := st.cur.LogicalEnd() - logical; rem < n {
			n = rem
		}
		p.stats.InWindowWrites++
		return append(out, Placement{Logical: logical, Physical: st.cur.PhysicalFor(logical), Count: n}), n, nil
	}

	// Case 2: inside the sequential window — pre_alloc_layout. The
	// stream is sequential: promote the sequential window to current and
	// reserve a larger one further on. The placement covers the *whole*
	// promoted window — the blocks are persistently preallocated, so the
	// caller maps them as unwritten extents the way ext4 does; writes
	// that later land inside them need no further allocation.
	if st.seq.ContainsLogical(logical, 1) && !st.disabled {
		p.stats.PreallocHits++
		// A sequential hit clears the miss count: the threshold
		// recognizes *consecutively* missing streams as random, so a
		// bursty-but-sequential pattern (BTIO cells) keeps its
		// preallocation.
		st.misses = 0
		if err := p.promote(st); err != nil {
			return out, 0, err
		}
		n := count
		if rem := st.cur.LogicalEnd() - logical; rem < n {
			n = rem
		}
		return append(out, Placement{
			Logical:      st.cur.Logical,
			Physical:     st.cur.Disk,
			Count:        st.cur.Len,
			Preallocated: true,
		}), n, nil
	}

	// Case 3: layout_miss — first extend or an out-of-window write.
	p.stats.LayoutMisses++
	st.misses++
	if !st.disabled && st.misses >= p.cfg.MissThreshold && st.seq.Len > 0 {
		// Recognized as a workload other than sequential: turn the
		// preallocation off immediately.
		st.disabled = true
		p.stats.StreamsDisabled++
		p.src.UnreserveAll(st.owner)
		st.seq = Window{}
		st.seqRange = alloc.Range{}
	}

	if st.disabled {
		out, err := allocRun(p.src, st.owner, logical, count, goal, out)
		return out, count, err
	}

	// Allocate the written blocks themselves, then initiate the
	// sequential window right after them.
	out, err := allocRun(p.src, st.owner, logical, count, goal, out)
	if err != nil {
		return out, count, err
	}
	// The current window becomes the final allocated run (with a
	// fragmented allocation, only the last run can seed contiguous
	// growth).
	last := out[len(out)-1]
	st.cur = Window{Disk: last.Physical, Logical: last.Logical, Len: last.Count}
	st.winSize = p.clampWindow(count * p.cfg.Scale)
	p.reserveSeq(st)
	return out, count, nil
}

// promote converts the sequential window into the current window
// (persisting its blocks) and reserves the next, larger sequential window.
func (p *OnDemand) promote(st *streamState) error {
	if err := p.src.ConvertReserved(st.owner, st.seqRange); err != nil {
		return err
	}
	p.stats.PreallocatedBlocks += st.seq.Len
	st.cur = st.seq
	st.seq = Window{}
	st.seqRange = alloc.Range{}
	st.winSize = p.clampWindow(st.winSize * p.cfg.Scale)
	p.reserveSeq(st)
	return nil
}

// reserveSeq opens a new sequential window of st.winSize blocks,
// logically continuing the current window and physically as near its end as
// the free space allows. A failed reservation (device full) leaves the
// stream with no sequential window; subsequent writes fall back to plain
// allocation via layout_miss.
func (p *OnDemand) reserveSeq(st *streamState) {
	r, err := p.src.ReserveNear(st.owner, st.cur.DiskEnd(), st.winSize)
	if err != nil {
		st.seq = Window{}
		st.seqRange = alloc.Range{}
		return
	}
	st.seq = Window{Disk: r.Start, Logical: st.cur.LogicalEnd(), Len: r.Count}
	st.seqRange = r
}

// clampWindow bounds a window size to [1, MaxPreallocBlocks].
func (p *OnDemand) clampWindow(n int64) int64 {
	if n < 1 {
		n = 1
	}
	if n > p.cfg.MaxPreallocBlocks {
		n = p.cfg.MaxPreallocBlocks
	}
	return n
}

// Close implements Policy: it drops every stream's sequential-window
// reservation. Current windows persist — their blocks are allocated on
// disk and survive reboots by design.
func (p *OnDemand) Close() {
	// Deterministic release order keeps simulated allocator traces
	// reproducible: map iteration order is random.
	ids := make([]StreamID, 0, len(p.streams))
	for id := range p.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.PID < b.PID
	})
	for _, id := range ids {
		st := p.streams[id]
		p.src.UnreserveAll(st.owner)
		st.seq = Window{}
		st.seqRange = alloc.Range{}
	}
}

// errInvalidRange builds the shared invalid-argument error.
func errInvalidRange(logical, count int64) error {
	return &InvalidRangeError{Logical: logical, Count: count}
}

// InvalidRangeError reports a Place call with a non-positive count or
// negative offset.
type InvalidRangeError struct {
	Logical int64
	Count   int64
}

// Error implements error.
func (e *InvalidRangeError) Error() string {
	return "core: invalid placement range"
}
