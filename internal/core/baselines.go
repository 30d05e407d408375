package core

import (
	"sync"

	"redbud/internal/alloc"
)

// Reservation is the traditional per-inode reservation baseline used by
// ext4, GPFS and CXFS-style allocators: one window per *file*, shared by
// every stream, handed out strictly in arrival order. With concurrent
// writers this is exactly the interleaving of Figure 1(a): "these blocks
// are placed in the reserved space in the order of arrival time".
type Reservation struct {
	src BlockSource
	// windowBlocks is the reservation size in blocks; Figure 6(b) sweeps
	// this parameter ("the allocation size").
	windowBlocks int64

	mu      sync.Mutex
	owner   alloc.Owner
	window  alloc.Range // remaining reserved, unconsumed range
	opened  bool
	scratch []Placement // reused result buffer; valid until the next Place
}

// NewReservation builds the baseline with the given window size in blocks.
func NewReservation(src BlockSource, windowBlocks int64) *Reservation {
	if windowBlocks < 1 {
		panic("core: Reservation window must be >= 1 block")
	}
	return &Reservation{src: src, windowBlocks: windowBlocks, owner: nextOwner()}
}

// Name implements Policy.
func (p *Reservation) Name() string { return "reservation" }

// Place implements Policy. The stream identity is ignored: the reservation
// is per inode, which is precisely why concurrent streams interleave.
func (p *Reservation) Place(_ StreamID, logical, count, goal int64) ([]Placement, error) {
	if count <= 0 || logical < 0 {
		return nil, errInvalidRange(logical, count)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.scratch[:0]
	for count > 0 {
		if p.window.Count == 0 {
			r, err := p.src.ReserveNear(p.owner, goal, p.windowBlocks)
			if err != nil {
				// Device too fragmented or full for a window:
				// degrade to plain allocation.
				out, err = allocRun(p.src, p.owner, logical, count, goal, out)
				p.scratch = out
				return out, err
			}
			p.window = r
			p.opened = true
		}
		take := count
		if take > p.window.Count {
			take = p.window.Count
		}
		chunk := alloc.Range{Start: p.window.Start, Count: take}
		if err := p.src.ConvertReserved(p.owner, chunk); err != nil {
			p.scratch = out
			return out, err
		}
		out = append(out, Placement{Logical: logical, Physical: chunk.Start, Count: take})
		logical += take
		count -= take
		goal = chunk.End()
		p.window.Start += take
		p.window.Count -= take
	}
	p.scratch = out
	return out, nil
}

// Close implements Policy, releasing the unconsumed window.
func (p *Reservation) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.window.Count > 0 {
		p.src.Unreserve(p.owner, p.window)
		p.window = alloc.Range{}
	}
}

// Vanilla performs no preallocation at all: every extending write allocates
// near the file tail at request time, and nothing shields the region from
// other writers. Table I labels this mode "Vanilla".
type Vanilla struct {
	src BlockSource
}

// NewVanilla builds the no-preallocation policy.
func NewVanilla(src BlockSource) *Vanilla { return &Vanilla{src: src} }

// Name implements Policy.
func (p *Vanilla) Name() string { return "vanilla" }

// Place implements Policy.
func (p *Vanilla) Place(_ StreamID, logical, count, goal int64) ([]Placement, error) {
	if count <= 0 || logical < 0 {
		return nil, errInvalidRange(logical, count)
	}
	return allocRun(p.src, 0, logical, count, goal, nil)
}

// Close implements Policy.
func (p *Vanilla) Close() {}

// Static is fallocate(2)-style persistent preallocation: the first Place
// call allocates the entire declared file size contiguously, and every
// write maps inside it. It requires the application "to have sufficient
// foreknowledge of how much space the file will need" — the size is fixed
// at construction.
type Static struct {
	src        BlockSource
	sizeBlocks int64

	mu      sync.Mutex
	placed  []Placement // the fallocated runs, logical-ordered
	scratch []Placement // reused result buffer; valid until the next Place
}

// NewStatic builds the policy for a file of sizeBlocks blocks.
func NewStatic(src BlockSource, sizeBlocks int64) *Static {
	if sizeBlocks < 1 {
		panic("core: Static size must be >= 1 block")
	}
	return &Static{src: src, sizeBlocks: sizeBlocks}
}

// Name implements Policy.
func (p *Static) Name() string { return "static" }

// Fallocate performs the up-front allocation near goal. It is idempotent;
// Place calls it implicitly on first use.
func (p *Static) Fallocate(goal int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fallocateLocked(goal)
}

func (p *Static) fallocateLocked(goal int64) error {
	if p.placed != nil {
		return nil
	}
	out, err := allocRun(p.src, 0, 0, p.sizeBlocks, goal, nil)
	if err != nil {
		// All or nothing: the runs taken before the source ran dry were never
		// handed to the caller, so nobody else can free them.
		for _, pl := range out {
			_ = p.src.Free(alloc.Range{Start: pl.Physical, Count: pl.Count})
		}
		return err
	}
	for i := range out {
		out[i].Preallocated = true
	}
	p.placed = out
	return nil
}

// Place implements Policy. Writes beyond the fallocated size fail: the
// static policy models an application that declared the file size exactly.
func (p *Static) Place(_ StreamID, logical, count, goal int64) ([]Placement, error) {
	if count <= 0 || logical < 0 {
		return nil, errInvalidRange(logical, count)
	}
	if logical+count > p.sizeBlocks {
		return nil, &InvalidRangeError{Logical: logical, Count: count}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.fallocateLocked(goal); err != nil {
		return nil, err
	}
	out := p.scratch[:0]
	end := logical + count
	for _, run := range p.placed {
		runEnd := run.Logical + run.Count
		if runEnd <= logical || run.Logical >= end {
			continue
		}
		lo, hi := run.Logical, runEnd
		if lo < logical {
			lo = logical
		}
		if hi > end {
			hi = end
		}
		out = append(out, Placement{
			Logical:      lo,
			Physical:     run.Physical + (lo - run.Logical),
			Count:        hi - lo,
			Preallocated: true,
		})
	}
	p.scratch = out
	return out, nil
}

// Placed returns the fallocated runs; it is a test and reporting hook.
func (p *Static) Placed() []Placement {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Placement, len(p.placed))
	copy(out, p.placed)
	return out
}

// Close implements Policy.
func (p *Static) Close() {}

// Compile-time interface checks.
var (
	_ Policy = (*OnDemand)(nil)
	_ Policy = (*Reservation)(nil)
	_ Policy = (*Vanilla)(nil)
	_ Policy = (*Static)(nil)
)
