package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"redbud/internal/core"
	"redbud/internal/sim"
)

// everyKind has one line of each op kind.
const everyKind = `W 1.2 10 4
R 0 8
mkdir 0 d1
rmdir 0 d0
create 1 f000001
utime 1 f000001
stat 1 src0001.c
readdirplus 1 5000
unlink 1 f000001
setlayout 0 249 512
fcreate 2 pm0000001 8
open 2 pm0000001
close
delete 2 pm0000001
delete-if-present 3 src0001.o
sync
dropcaches
fsync
use 3
`

func TestRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpWrite, Stream: core.StreamID{Client: 2, PID: 3}, Blk: 100, Count: 8},
		{Kind: OpRead, Blk: 0, Count: 64},
		{Kind: OpWrite, Stream: core.StreamID{Client: 0, PID: 0}, Blk: 0, Count: 1},
		{Kind: OpCreateFile, Slot: 1, Name: "side.log"},
		{Kind: OpUse, Slot: 0},
		{Kind: OpFsync},
		{Kind: OpUse, Slot: 1},
		{Kind: OpClose},
	}
	var buf bytes.Buffer
	if err := Write(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v, want %+v", i, got[i], ops[i])
		}
	}
}

// TestEveryKindReads: each op kind has a line that parses to that kind and
// writes back as the same line.
func TestEveryKindReads(t *testing.T) {
	ops, err := Read(strings.NewReader(everyKind))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(kinds) {
		t.Fatalf("read %d ops, want one per kind (%d)", len(ops), len(kinds))
	}
	var buf bytes.Buffer
	if err := Write(&buf, ops); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.Kind != OpKind(i) {
			t.Errorf("line %d parsed as kind %d, want %d", i+1, op.Kind, i)
		}
	}
	if buf.String() != everyKind {
		t.Errorf("written back as\n%s\nwant\n%s", buf.String(), everyKind)
	}
}

// TestWriteRejectsBadNames: a name that would not read back as one field
// is not written.
func TestWriteRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "two words", "tab\tname"} {
		if err := Write(&bytes.Buffer{}, []Op{{Kind: OpMkdir, Name: name}}); err == nil {
			t.Errorf("name %q should be rejected", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nW 1.2 10 4\n  \n# trailing\nR 0 8\n"
	ops, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"X 1 2",
		"W 1.2 10",
		"W 12 10 4",
		"W 1.2 -5 4",
		"W 1.2 5 0",
		"R 5",
		"R a b",
		"W a.b 1 1",
		"W 1.1 9223372036854775807 1",
		"R 1 9223372036854775807",
		// one per metadata, file and phase kind
		"mkdir 0", "rmdir x d", "create -1 f", "utime 1", "stat 0 a b",
		"readdirplus 1 -1", "readdirplus 1", "unlink 1.5 f",
		"setlayout 0 -3 0", "setlayout 0 3", "setlayout 0 65537 0",
		"setlayout 0 2 9223372036854775800",
		"fcreate 1 f -8", "fcreate 1 8", "open 1", "close 1",
		"delete 1 \t", "delete-if-present -2 f", "sync now", "dropcaches 0",
		"fsync 0", "use", "use -1", "use a", "use 1 2",
	} {
		// The bad line follows a good one: its error names line 2.
		_, err := Read(strings.NewReader("sync\n" + bad + "\n"))
		if err == nil {
			t.Errorf("line %q should be rejected", bad)
		} else if !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("line %q: error %q does not name line 2", bad, err)
		}
	}
}

func TestGeneratePatterns(t *testing.T) {
	for _, pattern := range []string{"shared", "strided", "random"} {
		ops, err := Generate(GenConfig{
			Pattern: pattern, Streams: 8, RegionBlocks: 64, RequestBlocks: 8,
			ReadBack: true, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		var writeBlocks, readBlocks int64
		for _, op := range ops {
			if op.Count <= 0 || op.Blk < 0 {
				t.Fatalf("%s: invalid op %+v", pattern, op)
			}
			if op.Kind == OpWrite {
				writeBlocks += op.Count
			} else {
				readBlocks += op.Count
			}
		}
		if writeBlocks != 8*64 {
			t.Fatalf("%s: wrote %d blocks, want 512", pattern, writeBlocks)
		}
		if readBlocks != 512 {
			t.Fatalf("%s: read back %d blocks, want 512", pattern, readBlocks)
		}
	}
	if _, err := Generate(GenConfig{Pattern: "nope", Streams: 1, RegionBlocks: 1, RequestBlocks: 1}); err == nil {
		t.Fatal("unknown pattern should fail")
	}
	if _, err := Generate(GenConfig{Pattern: "shared"}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Pattern: "random", Streams: 4, RegionBlocks: 32, RequestBlocks: 4, Seed: 9}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic content")
		}
	}
}

// Property: any generated trace round-trips through the text format.
func TestGenerateRoundTripProperty(t *testing.T) {
	patterns := []string{"shared", "strided", "random"}
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		cfg := GenConfig{
			Pattern:       patterns[rng.Intn(3)],
			Streams:       rng.Intn(8) + 1,
			RegionBlocks:  rng.Int63n(64) + 1,
			RequestBlocks: rng.Int63n(8) + 1,
			ReadBack:      rng.Intn(2) == 0,
			Seed:          rng.Uint64(),
		}
		ops, err := Generate(cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if Write(&buf, ops) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if got[i] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRead feeds arbitrary bytes to the trace parser: it never panics,
// every W or R it accepts is a non-empty range whose end fits in an int64
// (the replayer sizes its file from the largest end), every setlayout a
// bounded extent count whose last block fits, every number is
// non-negative, every name one field, and writing the accepted ops back
// out reads back the same ops.
func FuzzRead(f *testing.F) {
	for _, pattern := range []string{"shared", "strided", "random"} {
		ops, err := Generate(GenConfig{Pattern: pattern, Streams: 4, RegionBlocks: 32, RequestBlocks: 8, ReadBack: true, Seed: 5})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, ops); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("# header\n\nW 1.2 10 4\n  \nR 0 8\n"))
	f.Add([]byte("W 1.1 9223372036854775807 1\n"))
	for _, line := range strings.SplitAfter(everyKind, "\n") {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, op := range ops {
			bad := op.Blk < 0 || op.Count < 0 || op.Slot < 0
			switch op.Kind {
			case OpWrite, OpRead:
				bad = bad || op.Count == 0 || op.Blk+op.Count <= op.Blk
			case OpSetLayout:
				bad = bad || op.Count > maxLayoutExtents || op.Blk+8*op.Count < op.Blk
			}
			if strings.Contains(kinds[op.Kind].args, "name") {
				bad = bad || op.Name == "" || strings.ContainsFunc(op.Name, unicode.IsSpace)
			}
			if bad {
				t.Fatalf("accepted %+v", op)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, ops); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading written ops: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("read back %d ops, want %d", len(again), len(ops))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("op %d read back %+v, want %+v", i, again[i], ops[i])
			}
		}
	})
}
