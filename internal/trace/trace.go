// Package trace defines the block-level workload trace format shared by
// cmd/miftrace and the workload generators: a line-oriented, diff-friendly
// encoding of write/read request streams with their stream identities, the
// raw material the allocation policies react to.
//
// Format, one operation per line:
//
//	W <client>.<pid> <blk> <count>    extending or overwrite write
//	R <blk> <count>                   read
//	# ...                             comment
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"redbud/internal/core"
	"redbud/internal/sim"
)

// OpKind distinguishes trace operations.
type OpKind byte

// Operation kinds.
const (
	OpWrite OpKind = 'W'
	OpRead  OpKind = 'R'
)

// Op is one trace operation.
type Op struct {
	Kind   OpKind
	Stream core.StreamID // writes only
	Blk    int64
	Count  int64
}

// String renders the op in trace format.
func (o Op) String() string {
	if o.Kind == OpWrite {
		return fmt.Sprintf("W %d.%d %d %d", o.Stream.Client, o.Stream.PID, o.Blk, o.Count)
	}
	return fmt.Sprintf("R %d %d", o.Blk, o.Count)
}

// Write serializes ops to w, one per line.
func Write(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		if _, err := fmt.Fprintln(bw, op); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace, skipping blank lines and # comments. Malformed
// lines are errors with their line number.
func Read(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		op, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// parseLine parses one trace line.
func parseLine(text string) (Op, error) {
	fields := strings.Fields(text)
	switch fields[0] {
	case "W":
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("write needs 4 fields, got %d", len(fields))
		}
		stream, err := ParseStream(fields[1])
		if err != nil {
			return Op{}, err
		}
		blk, count, err := parseRange(fields[2], fields[3])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpWrite, Stream: stream, Blk: blk, Count: count}, nil
	case "R":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("read needs 3 fields, got %d", len(fields))
		}
		blk, count, err := parseRange(fields[1], fields[2])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpRead, Blk: blk, Count: count}, nil
	default:
		return Op{}, fmt.Errorf("unknown op %q", fields[0])
	}
}

// parseRange parses and validates a (blk, count) pair: a non-empty range
// from a non-negative block whose end fits in an int64.
func parseRange(blkS, countS string) (int64, int64, error) {
	blk, err := strconv.ParseInt(blkS, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad block %q", blkS)
	}
	count, err := strconv.ParseInt(countS, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad count %q", countS)
	}
	if blk < 0 || count <= 0 || count > math.MaxInt64-blk {
		return 0, 0, fmt.Errorf("invalid range [%d,+%d)", blk, count)
	}
	return blk, count, nil
}

// ParseStream parses "client.pid".
func ParseStream(v string) (core.StreamID, error) {
	parts := strings.SplitN(v, ".", 2)
	if len(parts) != 2 {
		return core.StreamID{}, fmt.Errorf("stream %q: want client.pid", v)
	}
	c, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return core.StreamID{}, fmt.Errorf("stream %q: %v", v, err)
	}
	p, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return core.StreamID{}, fmt.Errorf("stream %q: %v", v, err)
	}
	return core.StreamID{Client: uint32(c), PID: uint32(p)}, nil
}

// GenConfig parameterizes the synthetic trace generators.
type GenConfig struct {
	// Pattern selects the write pattern: "shared" (round-robin extends
	// of disjoint regions, Figure 1(a)), "strided" (each stream writes
	// every streams-th chunk), or "random".
	Pattern string
	// Streams is the writer count.
	Streams int
	// RegionBlocks is each stream's share in blocks.
	RegionBlocks int64
	// RequestBlocks is the write request size.
	RequestBlocks int64
	// ReadBack appends a sequential read pass over the written range.
	ReadBack bool
	// Seed drives the random pattern.
	Seed uint64
}

// Generate builds a synthetic trace.
func Generate(cfg GenConfig) ([]Op, error) {
	if cfg.Streams <= 0 || cfg.RegionBlocks <= 0 || cfg.RequestBlocks <= 0 {
		return nil, fmt.Errorf("trace: bad generator config %+v", cfg)
	}
	stream := func(s int) core.StreamID {
		return core.StreamID{Client: uint32(s / 4), PID: uint32(s % 4)}
	}
	total := int64(cfg.Streams) * cfg.RegionBlocks
	var ops []Op
	switch cfg.Pattern {
	case "shared":
		for off := int64(0); off < cfg.RegionBlocks; off += cfg.RequestBlocks {
			n := cfg.RequestBlocks
			if off+n > cfg.RegionBlocks {
				n = cfg.RegionBlocks - off
			}
			for s := 0; s < cfg.Streams; s++ {
				ops = append(ops, Op{Kind: OpWrite, Stream: stream(s), Blk: int64(s)*cfg.RegionBlocks + off, Count: n})
			}
		}
	case "strided":
		for off := int64(0); off < total; off += cfg.RequestBlocks {
			n := cfg.RequestBlocks
			if off+n > total {
				n = total - off
			}
			s := int((off / cfg.RequestBlocks) % int64(cfg.Streams))
			ops = append(ops, Op{Kind: OpWrite, Stream: stream(s), Blk: off, Count: n})
		}
	case "random":
		rng := sim.NewRand(cfg.Seed)
		for i := int64(0); i < total/cfg.RequestBlocks; i++ {
			s := rng.Intn(cfg.Streams)
			blk := rng.Int63n(total - cfg.RequestBlocks + 1)
			ops = append(ops, Op{Kind: OpWrite, Stream: stream(s), Blk: blk, Count: cfg.RequestBlocks})
		}
	default:
		return nil, fmt.Errorf("trace: unknown pattern %q", cfg.Pattern)
	}
	if cfg.ReadBack {
		for blk := int64(0); blk < total; blk += 64 {
			n := int64(64)
			if blk+n > total {
				n = total - blk
			}
			ops = append(ops, Op{Kind: OpRead, Blk: blk, Count: n})
		}
	}
	return ops, nil
}
