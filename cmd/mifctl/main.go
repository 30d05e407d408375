// Command mifctl formats a Redbud instance and runs ad-hoc file operations
// against it, printing placement and fragmentation reports. It is the
// interactive inspection tool for the simulator: a REPL-less batch CLI
// driven by a small op script.
//
// Usage:
//
//	mifctl [flags] <script>
//
// where <script> is a file (or - for stdin) of one operation per line:
//
//	mkdir <path>
//	create <path> [sizeBlocks]
//	write <path> <stream> <blk> <count>
//	read <path> <blk> <count>
//	delete <path>
//	ls <path>
//	layout <path>
//	defrag
//	sync
//	report
//	stats
//	crash <ost>
//	revive <ost>
//	repair
//	replicas <path>
//
// With -cache, the mount carries the client-side block cache: writes are
// absorbed and aggregated client-side until a barrier (`sync`, delete, or
// an implicit close/truncate) writes them back, and `report` adds a cache
// line. The layer=cache metrics appear in `stats`.
//
// With -rf N (N > 1), every stripe component carries an N-way replica set:
// writes fan out to all live copies and reads steer to the least-loaded
// one; `repair` drains the background re-replication engine, `replicas
// <path>` prints a file's per-component replica sets, and `report` adds
// per-OST placement and replica-state lines. The layer=replica metrics
// appear in `stats`. `crash`/`revive` blackhole and restore an IO server on
// any mount — unreplicated, its data is unreachable until the revive.
//
// Every mount is instrumented into a telemetry registry; `stats` dumps the
// live registry (counters, gauges, per-layer latency histograms, time
// series, structured events) as aligned tables. `report` adds a "path:"
// line — the session's request latency attributed per layer by the span
// critical-path analyzer — and an "events:" line when structured events
// (retries, timeouts, evictions, defrag preemptions) occurred. The session
// is always span-traced; with -trace <file> the spans are additionally
// written as Chrome trace_event JSON, openable in chrome://tracing or
// Perfetto.
//
// Example:
//
//	echo 'create /a.dat
//	write /a.dat 1.1 0 64
//	write /a.dat 2.1 1024 64
//	layout /a.dat
//	report
//	stats' | mifctl -policy on-demand -trace trace.json -
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/inode"
	"redbud/internal/pfs"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

func main() {
	policy := flag.String("policy", "on-demand", "placement policy: vanilla|reservation|on-demand|static")
	layout := flag.String("layout", "embedded", "directory layout: normal|embedded")
	osts := flag.Int("osts", 4, "number of IO servers")
	cacheOn := flag.Bool("cache", false, "mount with the client-side block cache (default tuning)")
	rf := flag.Int("rf", 1, "replication factor: N-way replica sets when > 1 (enables repair/replicas)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the session to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mifctl [flags] <script|->")
		os.Exit(2)
	}

	cfg, err := mountConfig(*policy, *layout, *osts, *cacheOn, *rf)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := pfs.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var in io.Reader
	if flag.Arg(0) == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := run(fs, cfg.Metrics, cfg.Trace, in, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.Trace.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// mountConfig builds the session's mount from the flag values. The mount
// is always instrumented into a fresh registry and always traced: `report`
// feeds the spans through the critical-path analyzer for its per-layer
// breakdown line, and -trace only decides whether the spans are also
// written out.
func mountConfig(policy, layout string, osts int, cacheOn bool, rf int) (pfs.Config, error) {
	kind, err := pfs.ParsePolicy(policy)
	if err != nil {
		return pfs.Config{}, err
	}
	cfg := pfs.MiF(osts).WithPolicy(kind)
	if layout == "normal" {
		cfg.MDS = pfs.RedbudOrig(osts).MDS
	}
	cfg.Name = fmt.Sprintf("%s/%s", policy, layout)
	if cacheOn {
		cc := cache.DefaultConfig()
		cfg.Cache = &cc
		cfg.Name += "+cache"
	}
	if rf > 1 {
		rc := replica.DefaultConfig()
		rc.RF = rf
		cfg.Replication = &rc
		cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
		cfg.Name += fmt.Sprintf("+rf%d", rf)
	}
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Trace = telemetry.NewTracer(nil)
	return cfg, nil
}

// session tracks open handles by path.
type session struct {
	fs    *pfs.FS
	reg   *telemetry.Registry
	tr    *telemetry.Tracer
	files map[string]*pfs.File
}

// resolveDir walks the parent directories of path, creating nothing.
func (s *session) resolveDir(path string) (inode.Ino, string, error) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	dir := s.fs.Root()
	for _, p := range parts[:len(parts)-1] {
		ino, err := s.fs.MDS().Lookup(dir, p)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", path, err)
		}
		dir = ino
	}
	return dir, parts[len(parts)-1], nil
}

// run executes the op script.
func run(fs *pfs.FS, reg *telemetry.Registry, tr *telemetry.Tracer, in io.Reader, out io.Writer) error {
	s := &session{fs: fs, reg: reg, tr: tr, files: make(map[string]*pfs.File)}
	sc := bufio.NewScanner(in)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if err := s.exec(out, fields); err != nil {
			return fmt.Errorf("line %d (%s): %w", line, fields[0], err)
		}
	}
	return sc.Err()
}

// exec dispatches one script operation.
func (s *session) exec(out io.Writer, f []string) error {
	arg := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	num := func(i int) int64 {
		n, _ := strconv.ParseInt(arg(i), 10, 64)
		return n
	}
	switch f[0] {
	case "mkdir":
		dir, name, err := s.resolveDir(arg(1))
		if err != nil {
			return err
		}
		_, err = s.fs.Mkdir(dir, name)
		return err
	case "create":
		dir, name, err := s.resolveDir(arg(1))
		if err != nil {
			return err
		}
		h, err := s.fs.Create(dir, name, num(2))
		if err != nil {
			return err
		}
		s.files[arg(1)] = h
		return nil
	case "write":
		h, err := s.handle(arg(1))
		if err != nil {
			return err
		}
		stream, err := parseStream(arg(2))
		if err != nil {
			return err
		}
		return h.Write(stream, num(3), num(4))
	case "read":
		h, err := s.handle(arg(1))
		if err != nil {
			return err
		}
		return h.Read(num(2), num(3))
	case "delete":
		dir, name, err := s.resolveDir(arg(1))
		if err != nil {
			return err
		}
		delete(s.files, arg(1))
		return s.fs.Delete(dir, name)
	case "ls":
		dir := s.fs.Root()
		if arg(1) != "/" && arg(1) != "" {
			d, name, err := s.resolveDir(arg(1) + "/.")
			if err != nil {
				return err
			}
			_ = name
			dir = d
		}
		recs, err := s.fs.MDS().ReaddirPlus(dir)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Fprintf(out, "%-10v %-6d %s\n", r.Ino, r.Size, r.Name)
		}
		return nil
	case "layout":
		h, err := s.handle(arg(1))
		if err != nil {
			return err
		}
		n, err := s.fs.TotalExtents(h)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d extents across %d OSTs\n", arg(1), n, s.fs.OSTs())
		for i := 0; i < s.fs.OSTs(); i++ {
			exts, err := s.fs.OST(i).Extents(h.ObjectID(i))
			if err != nil {
				continue
			}
			fmt.Fprintf(out, "  ost%d:", i)
			for j, e := range exts {
				if j == 8 {
					fmt.Fprintf(out, " … (+%d more)", len(exts)-8)
					break
				}
				fmt.Fprintf(out, " %v", e)
			}
			fmt.Fprintln(out)
		}
		return nil
	case "sync":
		return s.fs.Sync()
	case "report":
		s.fs.Flush()
		st := s.fs.DataStats()
		fmt.Fprintf(out, "data: %d requests, %d positionings, %d blocks written, %d read, busy %.2f ms\n",
			st.Requests, st.Positionings, st.BlocksWritten, st.BlocksRead, sim.Seconds(st.BusyNs)*1e3)
		m := s.fs.MDS().Stats()
		fmt.Fprintf(out, "mds:  %d RPCs, %d extent ops, cpu %.2f ms\n",
			m.RPCs, m.ExtentOps, sim.Seconds(m.CPUNs)*1e3)
		if c := s.fs.Cache(); c != nil {
			cs := c.Stats()
			fmt.Fprintf(out, "cache: %d hits, %d misses, %d dirty, %d cached, %d write-backs (%d blocks), %d evicted\n",
				cs.HitBlocks, cs.MissBlocks, cs.DirtyBlocks, cs.CachedBlocks, cs.Writebacks, cs.WritebackBlocks, cs.EvictedBlocks)
		}
		// Per-OST placement: how objects and used capacity spread over the
		// servers (the balance the replica spread policy optimizes).
		fmt.Fprint(out, "placement:")
		for i := 0; i < s.fs.OSTs(); i++ {
			srv := s.fs.OST(i)
			fmt.Fprintf(out, " ost%d %d objs/%d blks", i, srv.ObjectCount(), srv.UsedBlocks())
			if mgr := s.fs.Replication(); mgr != nil && mgr.Down(i) {
				fmt.Fprint(out, " DOWN")
			}
		}
		fmt.Fprintln(out)
		if mgr := s.fs.Replication(); mgr != nil {
			rs := mgr.Stats()
			fmt.Fprintf(out, "replica: rf=%d, %d components (%d under-replicated), %d osts down, %d fan-out writes, %d skipped, %d steered reads, %d failovers, %d repairs (%d blocks)\n",
				mgr.RF(), mgr.Components(), mgr.UnderReplicated(), mgr.DownCount(),
				rs.FanoutWrites, rs.SkippedWrites, rs.SteeredReads, rs.Failovers, rs.RepairsDone, rs.RepairBlocks)
		}
		// Per-layer latency breakdown: attribute the session's request
		// latency to layers via the span critical-path analyzer.
		if rep := telemetry.AnalyzeCritPath(s.tr.Spans(), 0); rep.Roots > 0 {
			fmt.Fprintf(out, "path: %d ops, %.2f ms total", rep.Roots, sim.Seconds(rep.TotalNs)*1e3)
			for _, lt := range rep.Layers {
				fmt.Fprintf(out, ", %s %.1f%%", lt.Layer, 100*float64(lt.SelfNs)/float64(rep.TotalNs))
			}
			if rep.UntrackedNs > 0 {
				fmt.Fprintf(out, ", untracked %.1f%%", 100*float64(rep.UntrackedNs)/float64(rep.TotalNs))
			}
			fmt.Fprintln(out)
		}
		if evs := s.reg.Events().Counts(); len(evs) > 0 {
			fmt.Fprint(out, "events:")
			for _, ec := range evs {
				fmt.Fprintf(out, " %s/%s %d", ec.Layer, ec.Kind, ec.Count)
			}
			fmt.Fprintln(out)
		}
		return nil
	case "stats":
		return s.reg.WriteText(out)
	case "defrag":
		// Migrate every fragmented object into a contiguous reserved
		// run, printing a per-OST before/after fragmentation report.
		s.fs.Flush()
		type snap struct{ objects, extents, ideal int }
		before := make([]snap, s.fs.OSTs())
		for i := range before {
			for _, r := range s.fs.OST(i).FragReportAll() {
				before[i].objects++
				before[i].extents += r.Extents
				before[i].ideal += r.IdealExtents
			}
		}
		st, err := s.fs.Defrag().Run()
		if err != nil {
			return err
		}
		for i := range before {
			after := 0
			for _, r := range s.fs.OST(i).FragReportAll() {
				after += r.Extents
			}
			fmt.Fprintf(out, "ost%d: %d objects, %d extents → %d (ideal %d)\n",
				i, before[i].objects, before[i].extents, after, before[i].ideal)
		}
		fmt.Fprintf(out, "defrag: migrated %d objects, moved %d blocks in %d slices, device busy %.2f ms\n",
			st.ObjectsMigrated, st.BlocksMoved, st.Slices, sim.Seconds(st.MoveNs)*1e3)
		return nil
	case "crash":
		return s.fs.CrashOST(int(num(1)))
	case "revive":
		return s.fs.ReviveOST(int(num(1)))
	case "repair":
		mgr := s.fs.Replication()
		if mgr == nil {
			return fmt.Errorf("mount is not replicated (run with -rf)")
		}
		before := mgr.Stats()
		if err := s.fs.RepairDrain(); err != nil {
			return err
		}
		after := mgr.Stats()
		fmt.Fprintf(out, "repair: %d jobs, %d blocks in %d slices, %d components still under-replicated\n",
			after.RepairsDone-before.RepairsDone, after.RepairBlocks-before.RepairBlocks,
			after.RepairSlices-before.RepairSlices, mgr.UnderReplicated())
		return nil
	case "replicas":
		mgr := s.fs.Replication()
		if mgr == nil {
			return fmt.Errorf("mount is not replicated (run with -rf)")
		}
		h, err := s.handle(arg(1))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: rf=%d\n", arg(1), mgr.RF())
		for c := 0; c < s.fs.OSTs(); c++ {
			members, obj, ok := mgr.Members(h.Ino(), c)
			if !ok {
				continue
			}
			fmt.Fprintf(out, "  comp%d obj%d:", c, obj)
			for _, m := range members {
				state := ""
				if m.Down {
					state += "!down"
				}
				if m.Stale {
					state += "!stale"
				}
				fmt.Fprintf(out, " ost%d%s", m.OST, state)
			}
			fmt.Fprintln(out)
		}
		return nil
	default:
		return fmt.Errorf("unknown op %q", f[0])
	}
}

// handle fetches (or opens) the handle for a path.
func (s *session) handle(path string) (*pfs.File, error) {
	if h, ok := s.files[path]; ok {
		return h, nil
	}
	dir, name, err := s.resolveDir(path)
	if err != nil {
		return nil, err
	}
	h, err := s.fs.Open(dir, name)
	if err != nil {
		return nil, err
	}
	s.files[path] = h
	return h, nil
}

// parseStream parses "client.pid".
func parseStream(v string) (core.StreamID, error) {
	parts := strings.SplitN(v, ".", 2)
	if len(parts) != 2 {
		return core.StreamID{}, fmt.Errorf("stream %q: want client.pid", v)
	}
	c, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return core.StreamID{}, err
	}
	p, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return core.StreamID{}, err
	}
	return core.StreamID{Client: uint32(c), PID: uint32(p)}, nil
}
