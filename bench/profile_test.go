package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// A tiny protobuf writer, enough to can a profile.proto for the decoder.
type protoWriter struct{ bytes.Buffer }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func (w *protoWriter) uintField(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *protoWriter) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}

func packed(vs ...uint64) []byte {
	var w protoWriter
	for _, v := range vs {
		w.varint(v)
	}
	return w.Bytes()
}

// cannedProfile builds a gzip'd profile whose functions are funcs (ids from
// 1, one location each, same id) and whose samples are the given stacks of
// function ids, leaf first, with their counts. Inlined frames are expressed
// as a location with several lines: inline[loc] lists extra function ids
// that follow the location's own in its line list.
func cannedProfile(t *testing.T, funcs []string, stacks [][]uint64, counts []uint64, inline map[uint64][]uint64) []byte {
	t.Helper()
	var p protoWriter
	strs := []string{""}
	for _, f := range funcs {
		strs = append(strs, f)
	}
	for i, stack := range stacks {
		var s protoWriter
		if i%2 == 0 {
			s.bytesField(1, packed(stack...)) // packed location ids
		} else {
			for _, loc := range stack { // the unpacked encoding is legal too
				s.uintField(1, loc)
			}
		}
		s.bytesField(2, packed(counts[i], counts[i]*10_000_000))
		p.bytesField(2, s.Bytes())
	}
	for id := range funcs {
		fid := uint64(id + 1)
		var l protoWriter
		l.uintField(1, fid) // location id
		l.uintField(3, 0x1000+fid)
		for _, fn := range append([]uint64{fid}, inline[fid]...) {
			var line protoWriter
			line.uintField(1, fn)
			line.uintField(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())

		var f protoWriter
		f.uintField(1, fid)
		f.uintField(2, fid) // name: string index == function id
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldCannedProfile(t *testing.T) {
	funcs := []string{
		"redbud/internal/mdfs.(*FS).appendDirent",      // 1
		"runtime.mapassign_fast64",                     // 2
		"redbud/internal/mds.(*Server).Create",         // 3
		"main.(*metaWorkload).run",                     // 4
		"runtime.mallocgc",                             // 5
		"runtime.gcBgMarkWorker",                       // 6
		"runtime.scanobject",                           // 7
		"runtime.gcAssistAlloc",                        // 8
		"sort.Slice",                                   // 9
		"redbud/internal/iosched.(*Elevator).Schedule", // 10
		"runtime.mcall",                                // 11
		"redbud/internal/extent.(*Map).search",         // 12
	}
	stacks := [][]uint64{
		{2, 1, 3, 4}, // map assign under appendDirent: mdfs pays for its helpers
		{3, 4},       // the server's own frame
		{4},          // the driver
		{5, 1, 3, 4}, // allocation, wherever it is asked for
		{7, 6},       // background marking
		{7, 8, 5, 1}, // an assist inside an allocation is collection, not allocation
		{9, 10, 4},   // library code under iosched
		{11},         // no frame of ours: counted in the total only
		{12, 4},      // a leaf frame of the program
	}
	counts := []uint64{40, 5, 3, 20, 10, 6, 8, 4, 4}
	prof := cannedProfile(t, funcs, stacks, counts, nil)

	got := make(map[string]int64)
	total, err := foldProfile(prof, got)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("total = %d samples, want 100", total)
	}
	want := map[string]int64{"mdfs": 40, "mds": 5, "bench": 3, "runtime_malloc": 20, "runtime_gc": 16, "iosched": 8, "extent": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	for b := range got {
		known := false
		for _, k := range cpuBuckets {
			known = known || k == b
		}
		if !known {
			t.Errorf("bucket %s is not a reported package", b)
		}
	}
}

func TestFoldInlinedFrames(t *testing.T) {
	// One location, two lines: the leaf runtime.memmove was inlined into
	// redbud/internal/ost.(*Server).Write, which is the frame to charge.
	funcs := []string{"runtime.memmove", "redbud/internal/ost.(*Server).Write"}
	prof := cannedProfile(t, funcs, [][]uint64{{1}}, []uint64{7}, map[uint64][]uint64{1: {2}})
	got := make(map[string]int64)
	if _, err := foldProfile(prof, got); err != nil {
		t.Fatal(err)
	}
	if got["ost"] != 7 {
		t.Errorf("buckets %v, want ost: 7", got)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile"), map[string]int64{}); err == nil {
		t.Error("garbage was accepted as a profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0xff, 0xff}) // a length that runs past the end
	zw.Close()
	if _, err := foldProfile(gz.Bytes(), map[string]int64{}); err == nil {
		t.Error("a truncated message was accepted")
	}
}

// spin burns CPU in the benchmark's own package.
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestFoldRealProfile decodes a profile the running toolchain wrote.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	sink += int64(spin(300 * time.Millisecond))
	pprof.StopCPUProfile()
	got := make(map[string]int64)
	total, err := foldProfile(buf.Bytes(), got)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples")
	}
	if 2*got["bench"] < total {
		t.Errorf("bench has %d of %d samples of a loop in this package: %v", got["bench"], total, got)
	}
}
