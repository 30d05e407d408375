package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanName indexes spanNames. Driver calls are named layer.fn after the
// public function they call; the bench.* names group them.
type spanName uint8

const (
	spIteration spanName = iota
	spInstance
	spPfsNew
	spPfsCreate
	spPfsWrite
	spPfsRead
	spPfsFsync
	spPfsClose
	spPfsFlush
	spPfsDelete
	spPfsTruncate
	spPfsCrashRepair
	spMdsNew
	spMdsMkdir
	spMdsCreate
	spMdsLookup
	spMdsUtime
	spMdsReaddirPlus
	spMdsUnlink
	spMdsRename
	spMdsSync
	spMdfsNew
	spMdfsMkdir
	spMdfsCreate
	spMdfsLookup
	spMdfsUtime
	spMdfsReaddirPlus
	spMdfsUnlink
	spMdfsRename
	spMdfsSync
	spMdfsLoadImage
	spFsckWorkers1
	spTelemetryExport
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spIteration:       "bench.iteration",
	spInstance:        "bench.instance",
	spPfsNew:          "pfs.new",
	spPfsCreate:       "pfs.create",
	spPfsWrite:        "pfs.write",
	spPfsRead:         "pfs.read",
	spPfsFsync:        "pfs.fsync",
	spPfsClose:        "pfs.close",
	spPfsFlush:        "pfs.flush",
	spPfsDelete:       "pfs.delete",
	spPfsTruncate:     "pfs.truncate",
	spPfsCrashRepair:  "pfs.crash_repair",
	spMdsNew:          "mds.new",
	spMdsMkdir:        "mds.mkdir",
	spMdsCreate:       "mds.create",
	spMdsLookup:       "mds.lookup",
	spMdsUtime:        "mds.utime",
	spMdsReaddirPlus:  "mds.readdirplus",
	spMdsUnlink:       "mds.unlink",
	spMdsRename:       "mds.rename",
	spMdsSync:         "mds.sync",
	spMdfsNew:         "mdfs.new",
	spMdfsMkdir:       "mdfs.mkdir",
	spMdfsCreate:      "mdfs.create",
	spMdfsLookup:      "mdfs.lookup",
	spMdfsUtime:       "mdfs.utime",
	spMdfsReaddirPlus: "mdfs.readdirplus",
	spMdfsUnlink:      "mdfs.unlink",
	spMdfsRename:      "mdfs.rename",
	spMdfsSync:        "mdfs.sync",
	spMdfsLoadImage:   "mdfs.loadimage",
	spFsckWorkers1:    "fsck.workers1",
	spTelemetryExport: "telemetry.export",
}

// span is one recorded interval of host time. Op is the sequence number of
// the driver call within its iteration (0 for the grouping spans), so the
// spans of one op share an identifier.
type span struct {
	Parent     spanRef
	Name       spanName
	Op         int64
	Start, End int64 // ns since the recorder's epoch
}

// spanRef is a span's index in its recorder (its ID in the span file).
type spanRef int32

const noSpan spanRef = -1

// recorder keeps the spans of one traced iteration in memory.
type recorder struct {
	epoch time.Time
	spans []span
	open  []spanRef // stack of open grouping spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) start(name spanName, op int64) spanRef {
	parent := noSpan
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Parent: parent, Name: name, Op: op})
	ref := spanRef(len(r.spans) - 1)
	r.spans[ref].Start = r.now()
	return ref
}

func (r *recorder) finish(ref spanRef) { r.spans[ref].End = r.now() }

func (r *recorder) push(name spanName) spanRef {
	ref := r.start(name, 0)
	r.open = append(r.open, ref)
	return ref
}

func (r *recorder) pop(ref spanRef) {
	r.finish(ref)
	r.open = r.open[:len(r.open)-1]
}

// spanTotals accumulates, per span name, the call count and the self time:
// a span's duration minus the part its children cover. The driver runs on
// one goroutine, so children never overlap and the union is their sum.
type spanTotals struct {
	calls  [numSpanNames]int64
	selfNs [numSpanNames]int64
}

func (t *spanTotals) add(spans []span) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent != noSpan {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		t.calls[s.Name]++
		t.selfNs[s.Name] += s.End - s.Start - covered[i]
	}
}

// meanNs returns the mean self time of one call of name, 0 if none ran.
func (t *spanTotals) meanNs(names ...spanName) float64 {
	var calls, ns int64
	for _, n := range names {
		calls += t.calls[n]
		ns += t.selfNs[n]
	}
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// layerCalls counts the driver calls whose span name starts with prefix.
func (t *spanTotals) layerCalls(prefix string) int64 {
	var n int64
	for name, c := range t.calls {
		if s := spanNames[name]; len(s) > len(prefix) && s[:len(prefix)] == prefix {
			n += c
		}
	}
	return n
}

// writeSpans writes the spans of one traced iteration as one JSON object:
// a name table and one [id, parent, name, op, start_ns, end_ns] row per
// span (parent -1 for a root).
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"format\":\"redbud-bench-spans/1\",\"workload\":%q,\"seed\":%d,\n\"names\":[", workload, seed)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"columns\":[\"id\",\"parent\",\"name\",\"op\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	buf := make([]byte, 0, 96)
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(i), 10)
		for _, v := range [...]int64{int64(s.Parent), int64(s.Name), s.Op, s.Start, s.End} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
