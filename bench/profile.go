package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes, so that CPU samples can be folded by package
// without a module dependency. Only the fields the folding needs are
// decoded: samples (stack and first value), locations (their lines),
// functions (their names) and the string table.

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

var errProto = errors.New("profile: malformed protobuf")

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = errProto
	}
	return field, v, data, err
}

func (r *protoReader) skip(n int) error {
	if n > len(r.b) {
		return errProto
	}
	r.b = r.b[n:]
	return nil
}

// uints decodes a repeated integer field occurrence, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuProfile is the decoded part of a profile: per sample the stack as
// function names, leaf first, and the sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample{location_id = 1, value = 2}
			var s sample
			var values []uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = uints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // samples/count; values[1] is cpu/nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			var id uint64
			var funcs []uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := protoReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function{id = 1, name = 2}
			var id, name uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// The buckets CPU samples fold into: the program's packages, the benchmark
// itself, and the two runtime costs the program causes but does not show
// as its own frames.
var cpuBuckets = []string{
	"pfs", "cache", "replica", "rpc", "mds", "mdfs", "journal", "ost", "core",
	"alloc", "extent", "iosched", "disk", "telemetry", "sim", "bench",
	"runtime_gc", "runtime_malloc",
}

// Frames that mark a stack as garbage collection: the background workers,
// the assists the allocator charges to the mutator, and the sweeper.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
	"runtime.GC":             true,
}

// funcPackage returns the bucket of a function by its package: the last
// element of a redbud/internal path, or bench for the benchmark's own code.
func funcPackage(fn string) string {
	const internal = "redbud/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "redbud/bench.") {
		return "bench"
	}
	return ""
}

// stackBucket attributes one stack. Garbage collection and allocation are
// their own buckets wherever they run; anything else belongs to the
// innermost frame that is the program's or the benchmark's, so that a
// package is charged for the runtime and library helpers it calls (map
// access, memmove, sort). It returns "" for stacks with no such frame.
func stackBucket(stack []string) string {
	malloc := false
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime_gc"
		}
		if fn == "runtime.mallocgc" {
			malloc = true
		}
	}
	if malloc {
		return "runtime_malloc"
	}
	for _, fn := range stack {
		if b := funcPackage(fn); b != "" {
			return b
		}
	}
	return ""
}

// foldProfile adds the profile's samples to the per-bucket counts and
// returns the number of samples it held.
func foldProfile(gz []byte, into map[string]int64) (int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return 0, err
	}
	var total int64
	for i, stack := range p.stacks {
		total += p.counts[i]
		if b := stackBucket(stack); b != "" {
			into[b] += p.counts[i]
		}
	}
	return total, nil
}
