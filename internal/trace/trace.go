// Package trace defines the op language shared by cmd/miftrace and the
// workload generators: a line-oriented, diff-friendly encoding of an op
// list. Block traces are write/read request streams with their stream
// identities, the raw material the allocation policies react to; the
// experiments' lists add the namespace, file and phase ops that
// workload.Apply interprets.
//
// Format, one operation per line:
//
//	W <client>.<pid> <blk> <count>   write blocks of the current file
//	R <blk> <count>                  read blocks of the current file
//	mkdir <dir> <name>               make a directory: the next directory slot
//	rmdir <dir> <name>               remove an empty directory
//	create <dir> <name>              create an MDS inode: the next inode slot
//	utime <dir> <name>               look a name up and update its mtime
//	stat <dir> <name>                resolve a name and read its inode
//	readdirplus <dir> <n>            read a directory of n entries with its inodes
//	unlink <dir> <name>              remove a name on the MDS
//	setlayout <ino> <n> <base>       record n ≤ 65536 extents: logical 4j → physical base+8j, 2 blocks
//	fcreate <dir> <name> <size>      create a striped file, size-hinted: the next file slot, made current
//	open <dir> <name>                open a file: the next file slot, made current
//	close                            close the current file
//	delete <dir> <name>              delete a file: its name and its objects
//	delete-if-present <dir> <name>   delete, a missing name being no error
//	sync                             sync the MDS (on a mount, the mount)
//	dropcaches                       drop the MDS page cache
//	fsync                            sync the current file
//	use <file>                       make the open file in a file slot current
//	# ...                            comment
//
// Directories, inodes and open files are named by slots, which the
// interpreter assigns in order: directory slot 0 is the root, and each
// mkdir takes the next one; each create takes the next inode slot; each
// fcreate and open the next file slot. A name is one field. W, R, fsync
// and close act on the current file; closing it leaves none current until
// a use or the next fcreate or open.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"redbud/internal/core"
	"redbud/internal/sim"
)

// OpKind distinguishes trace operations.
type OpKind byte

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
	OpMkdir
	OpRmdir
	OpCreate
	OpUtime
	OpStat
	OpReaddirPlus
	OpUnlink
	OpSetLayout
	OpCreateFile
	OpOpen
	OpClose
	OpDelete
	OpDeleteIfPresent
	OpSync
	OpDropCaches
	OpFsync
	OpUse
)

// maxLayoutExtents bounds a setlayout op's extent count.
const maxLayoutExtents = 1 << 16

// kindSpec is a kind's keyword and the fields that follow it: stream,
// name, and the numbers block (Blk), count (Count) and slot (Slot).
type kindSpec struct{ word, args string }

// kinds holds each kind's spec.
var kinds = [...]kindSpec{
	OpWrite: {"W", "stream block count"}, OpRead: {"R", "block count"},
	OpMkdir: {"mkdir", "slot name"}, OpRmdir: {"rmdir", "slot name"},
	OpCreate: {"create", "slot name"}, OpUtime: {"utime", "slot name"},
	OpStat: {"stat", "slot name"}, OpReaddirPlus: {"readdirplus", "slot count"},
	OpUnlink: {"unlink", "slot name"}, OpSetLayout: {"setlayout", "slot count block"},
	OpCreateFile: {"fcreate", "slot name count"}, OpOpen: {"open", "slot name"},
	OpClose: {"close", ""}, OpSync: {"sync", ""}, OpDropCaches: {"dropcaches", ""},
	OpDelete: {"delete", "slot name"}, OpDeleteIfPresent: {"delete-if-present", "slot name"},
	OpFsync: {"fsync", ""}, OpUse: {"use", "slot"},
}

// Op is one trace operation.
type Op struct {
	Kind   OpKind
	Stream core.StreamID // W only
	// Blk is W's and R's first block, and setlayout's physical base.
	Blk int64
	// Count is W's and R's block count, readdirplus's entry count,
	// setlayout's extent count and fcreate's size hint.
	Count int64
	// Slot is the op's directory slot, setlayout's inode slot or use's
	// file slot.
	Slot int64
	Name string
}

// field returns the numeric field an argument names.
func (o *Op) field(arg string) *int64 {
	switch arg {
	case "block":
		return &o.Blk
	case "count":
		return &o.Count
	}
	return &o.Slot
}

// String renders the op in trace format.
func (o Op) String() string {
	b := []byte(kinds[o.Kind].word)
	for _, arg := range strings.Fields(kinds[o.Kind].args) {
		switch arg {
		case "stream":
			b = fmt.Appendf(b, " %d.%d", o.Stream.Client, o.Stream.PID)
		case "name":
			b = append(append(b, ' '), o.Name...)
		default:
			b = fmt.Appendf(b, " %d", *o.field(arg))
		}
	}
	return string(b)
}

// Write serializes ops to w, one per line. A name that would not read back
// as one field is an error.
func Write(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for i, op := range ops {
		if strings.Contains(kinds[op.Kind].args, "name") &&
			(op.Name == "" || strings.ContainsFunc(op.Name, unicode.IsSpace)) {
			return fmt.Errorf("trace: op %d: name %q is not one field", i, op.Name)
		}
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

// parseLine parses one trace line. Every number is non-negative; W and R
// name a non-empty range whose end fits in an int64, and setlayout at most
// maxLayoutExtents extents whose last physical block does.
func parseLine(text string) (Op, error) {
	fields := strings.Fields(text)
	kind := slices.IndexFunc(kinds[:], func(k kindSpec) bool { return k.word == fields[0] })
	if kind < 0 {
		return Op{}, fmt.Errorf("unknown op %q", fields[0])
	}
	op := Op{Kind: OpKind(kind)}
	args := strings.Fields(kinds[op.Kind].args)
	if len(fields) != 1+len(args) {
		return Op{}, fmt.Errorf("%s needs %d fields, got %d", fields[0], 1+len(args), len(fields))
	}
	for i, arg := range args {
		f := fields[i+1]
		switch arg {
		case "stream":
			var err error
			if op.Stream, err = ParseStream(f); err != nil {
				return Op{}, err
			}
		case "name":
			op.Name = f
		default:
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil || n < 0 {
				return Op{}, fmt.Errorf("bad %s %q", arg, f)
			}
			*op.field(arg) = n
		}
	}
	switch {
	case (op.Kind == OpWrite || op.Kind == OpRead) && (op.Count == 0 || op.Count > math.MaxInt64-op.Blk):
		return Op{}, fmt.Errorf("invalid range [%d,+%d)", op.Blk, op.Count)
	case op.Kind == OpSetLayout && (op.Count > maxLayoutExtents || op.Blk > math.MaxInt64-8*op.Count):
		return Op{}, fmt.Errorf("invalid layout of %d extents from %d", op.Count, op.Blk)
	}
	return op, nil
}

// ParseStream parses "client.pid".
func ParseStream(v string) (core.StreamID, error) {
	cs, ps, ok := strings.Cut(v, ".")
	c, errC := strconv.ParseUint(cs, 10, 32)
	p, errP := strconv.ParseUint(ps, 10, 32)
	if !ok || errC != nil || errP != nil {
		return core.StreamID{}, fmt.Errorf("stream %q: want client.pid", v)
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
	// The shared pattern's write count bounds the other two patterns'.
	size := int64(cfg.Streams) * ((cfg.RegionBlocks + cfg.RequestBlocks - 1) / cfg.RequestBlocks)
	if cfg.ReadBack {
		size += (total + 63) / 64
	}
	ops := make([]Op, 0, size)
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
