package extent

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"redbud/internal/sim"
)

// refMap is the flat sorted-slice extent map the chunked Map replaced,
// kept as the oracle: every Map result, error text and Ops count must
// equal refMap's after any op sequence.
type refMap struct {
	ext     []Extent
	inserts int64
	merges  int64
}

func (m *refMap) search(logical int64) int {
	return sort.Search(len(m.ext), func(i int) bool { return m.ext[i].LogicalEnd() > logical })
}

func (m *refMap) Insert(e Extent) error {
	if e.Count <= 0 || e.Logical < 0 || e.Physical < 0 {
		return fmt.Errorf("extent: invalid insert %v", e)
	}
	i := m.search(e.Logical)
	if i < len(m.ext) && m.ext[i].Logical < e.LogicalEnd() {
		return fmt.Errorf("extent: insert %v overlaps %v", e, m.ext[i])
	}
	m.inserts++
	mergedPrev := i > 0 && m.ext[i-1].contiguousWith(e)
	mergedNext := i < len(m.ext) && e.contiguousWith(m.ext[i])
	switch {
	case mergedPrev && mergedNext:
		m.ext[i-1].Count += e.Count + m.ext[i].Count
		m.ext = append(m.ext[:i], m.ext[i+1:]...)
		m.merges += 2
	case mergedPrev:
		m.ext[i-1].Count += e.Count
		m.merges++
	case mergedNext:
		m.ext[i].Logical = e.Logical
		m.ext[i].Physical = e.Physical
		m.ext[i].Count += e.Count
		m.merges++
	default:
		m.ext = append(m.ext, Extent{})
		copy(m.ext[i+1:], m.ext[i:])
		m.ext[i] = e
	}
	return nil
}

func (m *refMap) Lookup(logical int64) (int64, bool) {
	i := m.search(logical)
	if i < len(m.ext) && m.ext[i].Logical <= logical {
		return m.ext[i].Physical + (logical - m.ext[i].Logical), true
	}
	return 0, false
}

func (m *refMap) AppendRange(dst []Extent, logical, count int64) []Extent {
	end := logical + count
	for i := m.search(logical); i < len(m.ext) && m.ext[i].Logical < end; i++ {
		e := m.ext[i]
		lo, hi := e.Logical, e.LogicalEnd()
		if lo < logical {
			lo = logical
		}
		if hi > end {
			hi = end
		}
		dst = append(dst, Extent{Logical: lo, Physical: e.Physical + (lo - e.Logical), Count: hi - lo, Flags: e.Flags})
	}
	return dst
}

func (m *refMap) NextAt(logical int64) (Extent, bool) {
	i := m.search(logical)
	if i >= len(m.ext) {
		return Extent{}, false
	}
	e := m.ext[i]
	if e.Logical < logical {
		off := logical - e.Logical
		e = Extent{Logical: logical, Physical: e.Physical + off, Count: e.Count - off, Flags: e.Flags}
	}
	return e, true
}

func (m *refMap) Delete(logical, count int64) []Extent {
	if count <= 0 {
		return nil
	}
	removed := m.AppendRange(nil, logical, count)
	if len(removed) == 0 {
		return nil
	}
	end := logical + count
	var out []Extent
	for _, e := range m.ext {
		if e.LogicalEnd() <= logical || e.Logical >= end {
			out = append(out, e)
			continue
		}
		if e.Logical < logical {
			out = append(out, Extent{Logical: e.Logical, Physical: e.Physical, Count: logical - e.Logical, Flags: e.Flags})
		}
		if e.LogicalEnd() > end {
			off := end - e.Logical
			out = append(out, Extent{Logical: end, Physical: e.Physical + off, Count: e.LogicalEnd() - end, Flags: e.Flags})
		}
	}
	m.ext = out
	return removed
}

func (m *refMap) MappedBlocks() int64 {
	var n int64
	for _, e := range m.ext {
		n += e.Count
	}
	return n
}

func (m *refMap) LastPhysical() (int64, bool) {
	if len(m.ext) == 0 {
		return 0, false
	}
	return m.ext[len(m.ext)-1].PhysicalEnd(), true
}

// opSource draws the choices of one op sequence, from a seeded generator
// or from fuzz input; an exhausted fuzz input ends the sequence.
type opSource struct {
	rng  *sim.Rand
	data []byte
}

func (s *opSource) done() bool { return s.rng == nil && len(s.data) < 2 }

func (s *opSource) intn(n int) int {
	if s.rng != nil {
		return s.rng.Intn(n)
	}
	if len(s.data) < 2 {
		return 0
	}
	v := int(binary.LittleEndian.Uint16(s.data))
	s.data = s.data[2:]
	return v % n
}

// space is the logical block range the op sequences address: wide enough
// for a few hundred extents of one to four blocks with holes between.
const space = 4096

// pair drives a chunked Map and a refMap in lockstep.
type pair struct {
	t    testing.TB
	m    Map
	ref  refMap
	step int

	// crossings counts the steps that took the map across one chunk's
	// capacity, either way.
	crossings int
	above     bool
}

func (p *pair) fail(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d: %s", p.step, fmt.Sprintf(format, args...))
}

func (p *pair) insert(e Extent) {
	p.t.Helper()
	err, want := p.m.Insert(e), p.ref.Insert(e)
	if fmt.Sprint(err) != fmt.Sprint(want) {
		p.fail("Insert(%v) = %v, reference %v", e, err, want)
	}
	p.check()
}

func (p *pair) delete(logical, count int64) {
	p.t.Helper()
	got, want := p.m.Delete(logical, count), p.ref.Delete(logical, count)
	if !reflect.DeepEqual(got, want) {
		p.fail("Delete(%d,+%d) = %v, reference %v", logical, count, got, want)
	}
	p.check()
}

// check compares the whole state: Validate, Len, Ops, Extents,
// MappedBlocks and LastPhysical.
func (p *pair) check() {
	p.t.Helper()
	p.step++
	if above := p.m.Len() > chunkCap; above != p.above {
		p.crossings++
		p.above = above
	}
	if err := p.m.Validate(); err != nil {
		p.fail("Validate: %v", err)
	}
	if p.m.Len() != len(p.ref.ext) {
		p.fail("Len = %d, reference %d", p.m.Len(), len(p.ref.ext))
	}
	gi, gm := p.m.Ops()
	if gi != p.ref.inserts || gm != p.ref.merges {
		p.fail("Ops = %d/%d, reference %d/%d", gi, gm, p.ref.inserts, p.ref.merges)
	}
	if got := p.m.Extents(); !slices.Equal(got, p.ref.ext) {
		p.fail("Extents = %v, reference %v", got, p.ref.ext)
	}
	if got, want := p.m.MappedBlocks(), p.ref.MappedBlocks(); got != want {
		p.fail("MappedBlocks = %d, reference %d", got, want)
	}
	gp, gok := p.m.LastPhysical()
	wp, wok := p.ref.LastPhysical()
	if gp != wp || gok != wok {
		p.fail("LastPhysical = %d,%v, reference %d,%v", gp, gok, wp, wok)
	}
}

// query compares the read-only lookups at one point and range.
func (p *pair) query(logical, count int64) {
	p.t.Helper()
	gp, gok := p.m.Lookup(logical)
	wp, wok := p.ref.Lookup(logical)
	if gp != wp || gok != wok {
		p.fail("Lookup(%d) = %d,%v, reference %d,%v", logical, gp, gok, wp, wok)
	}
	ge, gok := p.m.NextAt(logical)
	we, wok := p.ref.NextAt(logical)
	if ge != we || gok != wok {
		p.fail("NextAt(%d) = %v,%v, reference %v,%v", logical, ge, gok, we, wok)
	}
	if got, want := p.m.AppendRange(nil, logical, count), p.ref.AppendRange(nil, logical, count); !reflect.DeepEqual(got, want) {
		p.fail("AppendRange(%d,+%d) = %v, reference %v", logical, count, got, want)
	}
}

// gap returns a hole between two mapped extents of the reference, the
// predecessor's index with it; ok is false when there is none.
func (p *pair) gap(src *opSource) (k int, ok bool) {
	n := len(p.ref.ext)
	if n < 2 {
		return 0, false
	}
	start := src.intn(n - 1)
	for d := 0; d < n-1; d++ {
		k = (start + d) % (n - 1)
		if p.ref.ext[k].LogicalEnd() < p.ref.ext[k+1].Logical {
			return k, true
		}
	}
	return 0, false
}

// run plays one op sequence. Inserts dominate, so the map grows past one
// chunk, and a rare truncation cuts it back, so it crosses the one-chunk
// threshold many times: discontiguous inserts, inserts continuing a mapped
// extent, different-flag inserts, overlapping (rejected) inserts, hole
// fills that merge both sides, deletes of a few blocks, and truncations.
func (p *pair) run(src *opSource, ops int) {
	p.t.Helper()
	for k := 0; k < ops && !src.done(); k++ {
		switch op := src.intn(64); {
		case op < 28: // discontiguous, maybe prealloc
			e := Extent{Logical: int64(src.intn(space)), Physical: int64(src.intn(1 << 20)), Count: int64(src.intn(4) + 1)}
			if src.intn(4) == 0 {
				e.Flags = FlagPrealloc
			}
			p.insert(e)
		case op < 32: // continue a mapped extent physically, maybe with other flags
			if len(p.ref.ext) == 0 {
				continue
			}
			prev := p.ref.ext[src.intn(len(p.ref.ext))]
			e := Extent{Logical: prev.LogicalEnd(), Physical: prev.PhysicalEnd(), Count: int64(src.intn(3) + 1), Flags: prev.Flags}
			if src.intn(3) == 0 {
				e.Flags ^= FlagPrealloc
			}
			p.insert(e)
		case op < 36: // fill a hole exactly, merging both sides where they line up
			i, ok := p.gap(src)
			if !ok {
				continue
			}
			a, b := p.ref.ext[i], p.ref.ext[i+1]
			e := Extent{Logical: a.LogicalEnd(), Physical: a.PhysicalEnd(), Count: b.Logical - a.LogicalEnd(), Flags: a.Flags}
			if src.intn(2) == 0 {
				e.Physical = b.Physical - e.Count
				e.Flags = b.Flags
			}
			if e.Physical >= 0 {
				p.insert(e)
			}
		case op < 39: // overlap an existing extent, or an invalid extent
			if len(p.ref.ext) == 0 {
				p.insert(Extent{Logical: int64(src.intn(space)), Physical: 0, Count: 0})
				continue
			}
			e := p.ref.ext[src.intn(len(p.ref.ext))]
			p.insert(Extent{Logical: e.Logical + int64(src.intn(int(e.Count))), Physical: 1 << 21, Count: int64(src.intn(8) + 1)})
		case op < 42: // delete a few blocks
			p.delete(int64(src.intn(space)), int64(src.intn(16)))
		case op < 43: // now and then, truncate: a delete across many chunks
			if src.intn(4) == 0 {
				p.delete(int64(src.intn(space)), space)
			}
		default:
			p.query(int64(src.intn(space+8)), int64(src.intn(64)))
		}
	}
}

// TestMapMatchesReference plays seeded op sequences against Map and
// refMap, comparing every result and Ops after every step. The sequences
// grow maps to a few hundred extents and shrink them, crossing the
// one-chunk threshold many times.
func TestMapMatchesReference(t *testing.T) {
	crossings := 0
	for seed := uint64(1); seed <= 16; seed++ {
		p := &pair{t: t}
		p.run(&opSource{rng: sim.NewRand(seed)}, 4000)
		crossings += p.crossings
	}
	if crossings < 100 {
		t.Fatalf("the sequences crossed the one-chunk threshold %d times, want ≥ 100", crossings)
	}
}

// TestMergeBothAcrossChunkBoundary forces the two boundary cases of an
// insert: a predecessor that is the previous chunk's last extent, and a
// merge on both sides that empties the chunk holding the successor.
func TestMergeBothAcrossChunkBoundary(t *testing.T) {
	p := &pair{t: t}
	// Extents of one block two blocks apart, physical = logical, so every
	// hole fill merges both sides.
	for k := int64(0); k <= chunkCap; k++ {
		p.insert(Extent{Logical: 2 * k, Physical: 2 * k, Count: 1})
	}
	if len(p.m.more.rest) != 1 {
		t.Fatalf("%d extents in %d chunks, want 2", p.m.Len(), p.m.chunks())
	}
	// Shrink chunk 1 to its first extent.
	first := p.m.more.rest[0][0]
	p.delete(first.LogicalEnd(), space)
	if len(p.m.more.rest) != 1 || len(p.m.more.rest[0]) != 1 {
		t.Fatalf("chunk 1 holds %d extents, want 1", len(p.m.more.rest[0]))
	}
	// The predecessor of chunk 1's only extent is the head's last.
	last := p.m.head[len(p.m.head)-1]
	p.insert(Extent{Logical: last.LogicalEnd(), Physical: last.PhysicalEnd(), Count: first.Logical - last.LogicalEnd()})
	if p.m.chunks() != 1 {
		t.Fatalf("merge-both left %d chunks, want the emptied one dropped", p.m.chunks())
	}
	// The emptied chunk is reused by the next split.
	free := len(p.m.more.free)
	for k := int64(0); p.m.chunks() == 1; k++ {
		p.insert(Extent{Logical: 4096 + 2*k, Physical: 4096 + 2*k, Count: 1})
	}
	if len(p.m.more.free) != free-1 {
		t.Fatalf("free chunks %d → %d, want the split to reuse one", free, len(p.m.more.free))
	}
	// A merge-both whose predecessor ends chunk c-1 but whose successor
	// stays: the successor's chunk keeps its other extents.
	last = p.m.head[len(p.m.head)-1]
	next := p.m.more.rest[0][0]
	p.insert(Extent{Logical: last.LogicalEnd(), Physical: last.PhysicalEnd(), Count: next.Logical - last.LogicalEnd()})
	// Deleting everything drops every chunk but the head.
	p.delete(0, 1<<20)
	if p.m.chunks() != 1 || p.m.Len() != 0 {
		t.Fatalf("after deleting everything: %d chunks, Len %d", p.m.chunks(), p.m.Len())
	}
}

// FuzzMapMatchesReference decodes an op sequence from the input and plays
// it against Map and refMap. The seed corpus includes sequences long
// enough to split chunks.
func FuzzMapMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		data := make([]byte, 2*2500)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &pair{t: t}
		p.run(&opSource{data: data}, len(data))
	})
}
