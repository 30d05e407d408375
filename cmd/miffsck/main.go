// Command miffsck saves and checks metadata-file-system images: the
// offline consistency checker of the Redbud MDS.
//
// Usage:
//
//	miffsck gen [-layout embedded|normal] [-dirs N] [-files N] [-defrag] [-cache] [-journal-only] [-corrupt kind] <out.img>
//	miffsck check <image.img>
//	miffsck sweep [-seed N] [-points a,b,...]
//
// gen formats a file system, populates it (creates, layouts, deletions,
// renames), and saves the durable state; with -defrag every surviving
// file's fragmented layout is additionally rewritten as the single
// coalesced extent a completed defragmentation pass produces; with
// -cache the population instead runs through a full client-cached Redbud
// mount (writes absorbed by the client block cache, flushed by the
// close/truncate/delete/sync barriers), so the image records exactly the
// metadata those barriers made durable; with -journal-only the final
// changes are committed to the journal but not checkpointed, producing
// the crash-consistent image a power failure (for -defrag:
// mid-defragmentation) would leave; with -corrupt the finished file
// system is damaged on disk (mdfs.InjectCorruption — cycle, dup-claim,
// size-over, table-orphan, ...) so the image exercises a specific fsck
// finding class. check loads an image, replays its journal overlay,
// walks the namespace from the superblock, and reports every structural
// inconsistency.
//
// sweep runs the systematic crash-point sweep (internal/crashsim driven
// by the internal/workload crashsweep scenario): one power-fail run per
// registered (crash point, tear mode) pair, each recovered by journal
// replay, remount, IO-server scrub, and re-replication, then verified.
// -points restricts the sweep to a comma-separated subset of the
// registry.
//
// Exit codes (the fsck contract, asserted by the command's tests):
//
//	0 — check: the image is clean and needed no repair;
//	    sweep: every run recovered to a consistent state.
//	1 — check: the image is corrupt (structural fsck problems) or could
//	    not be read; sweep: a run failed to recover consistent; gen: the
//	    image could not be built or written.
//	2 — check: the image was dirty but repaired — journal replay had to
//	    re-apply committed records, after which the walk came up clean;
//	    any subcommand: a bad command line (usage).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/extent"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/pfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// errUsage marks a bad command line: run prints the usage line and
// returns 2.
var errUsage = errors.New("bad command line")

// run executes one miffsck command line, writing its report to stdout,
// and returns the exit code the package comment documents.
func run(args []string, stdout io.Writer) int {
	code, err := 0, errUsage
	if len(args) > 0 {
		switch args[0] {
		case "gen":
			err = gen(args[1:], stdout)
		case "check":
			code, err = check(args[1:], stdout)
		case "sweep":
			code, err = sweep(args[1:], stdout)
		}
	}
	switch {
	case err == nil:
		return code
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "usage: miffsck {gen|check|sweep} [flags] [image]")
		return 2
	}
	fmt.Fprintln(os.Stderr, "miffsck:", err)
	return 1
}

// parse parses a subcommand's flags and requires want positional
// arguments; a flag error or a wrong count is a usage error.
func parse(fs *flag.FlagSet, args []string, want int) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() != want {
		return errUsage
	}
	return nil
}

// gen formats, populates and saves an image; the package comment
// describes its flags.
func gen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	layoutName := fs.String("layout", "embedded", "embedded|normal")
	dirs := fs.Int("dirs", 4, "directories to create")
	files := fs.Int("files", 200, "files per directory")
	journalOnly := fs.Bool("journal-only", false, "leave the last changes un-checkpointed (crash image)")
	defrag := fs.Bool("defrag", false, "rewrite every live file's layout as one coalesced extent (a completed defrag pass)")
	cached := fs.Bool("cache", false, "populate through a client-cached Redbud mount (flush barriers write the metadata)")
	corrupt := fs.String("corrupt", "", "damage the finished file system on disk (cycle|dup-claim|size-over|table-orphan)")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	if *cached && *defrag {
		return errors.New("-cache and -defrag are mutually exclusive")
	}
	if *cached && *corrupt != "" {
		return errors.New("-cache and -corrupt are mutually exclusive")
	}
	layout, err := mdfs.ParseLayout(*layoutName)
	if err != nil {
		return err
	}

	var (
		m    *mdfs.FS
		sync func() error
		how  = fmt.Sprintf("defrag=%v", *defrag)
	)
	if *cached {
		pf, err := populateCached(layout, *dirs, *files)
		if err != nil {
			return err
		}
		m, sync, how = pf.MDS().FS(), pf.Sync, "via client-cached mount"
	} else {
		if m, err = populate(layout, *dirs, *files, *defrag, *corrupt); err != nil {
			return err
		}
		sync = m.Sync
	}
	if *journalOnly {
		sync = m.Store().Commit
	}
	if err := sync(); err != nil {
		return err
	}
	out, err := os.Create(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := m.SaveImage(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%s layout, %d dirs x %d files, %s, journal-only=%v)\n",
		fs.Arg(0), layout, *dirs, *files, how, *journalOnly)
	return nil
}

// populate formats a metadata file system and fills it directly: creates,
// layouts, deletions, then the -defrag rewrite and the -corrupt damage.
func populate(layout mdfs.Layout, dirs, files int, defrag bool, corrupt string) (*mdfs.FS, error) {
	m, err := mdfs.New(mdfs.DefaultConfig(layout))
	if err != nil {
		return nil, err
	}
	// fragmented remembers each surviving laid-out file for -defrag.
	type laidOut struct {
		ino    inode.Ino
		blocks int64
	}
	var fragmented []laidOut
	for d := 0; d < dirs; d++ {
		dir, err := m.Mkdir(m.Root(), fmt.Sprintf("dir%02d", d))
		if err != nil {
			return nil, err
		}
		for i := 0; i < files; i++ {
			ino, err := m.Create(dir, fmt.Sprintf("f%05d", i))
			if err != nil {
				return nil, err
			}
			if i%4 == 0 {
				var exts []extent.Extent
				var blocks int64
				for j := 0; j < 8+i%40; j++ {
					exts = append(exts, extent.Extent{Logical: int64(j) * 2, Physical: int64(d*100000 + i*64 + j*4), Count: 2})
					blocks += 2
				}
				if err := m.SetLayout(ino, exts); err != nil {
					return nil, err
				}
				if i%9 != 0 { // survives the deletion pass below
					fragmented = append(fragmented, laidOut{ino: ino, blocks: blocks})
				}
			}
		}
		for i := 0; i < files; i += 9 {
			if err := m.Unlink(dir, fmt.Sprintf("f%05d", i)); err != nil {
				return nil, err
			}
		}
	}
	if defrag {
		// Replay the MDS-visible half of a completed defrag pass: every
		// surviving file's many-extent layout collapses into the single
		// coalesced extent the migration produced, at a fresh (and
		// deterministic) physical home. Combined with -journal-only this
		// is the image a crash right after the defrag commits would
		// leave: the rewrites live only in the journal.
		base := int64(10_000_000)
		for _, f := range fragmented {
			ext := []extent.Extent{{Logical: 0, Physical: base, Count: f.blocks}}
			if err := m.SetLayout(f.ino, ext); err != nil {
				return nil, err
			}
			base += f.blocks
		}
	}
	if corrupt != "" {
		// InjectCorruption commits and checkpoints the damage itself, so
		// the image carries it in the home blocks.
		if err := m.InjectCorruption(corrupt); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// populateCached fills a full client-cached Redbud mount — writes land in
// the client block cache and reach the servers only through the close,
// truncate, delete, and sync flush barriers — so the MDS metadata image
// records what those barriers produced. A clean check of the image proves
// the barriers leave the metadata file system structurally consistent.
func populateCached(layout mdfs.Layout, dirs, files int) (*pfs.FS, error) {
	cfg := pfs.MiF(2)
	cfg.MDS = mds.DefaultConfig(layout)
	cc := cache.DefaultConfig()
	cfg.Cache = &cc
	pf, err := pfs.New(cfg)
	if err != nil {
		return nil, err
	}
	for d := 0; d < dirs; d++ {
		dir, err := pf.Mkdir(pf.Root(), fmt.Sprintf("dir%02d", d))
		if err != nil {
			return nil, err
		}
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("f%05d", i)
			h, err := pf.Create(dir, name, 0)
			if err != nil {
				return nil, err
			}
			if i%4 == 0 {
				// Small interleaved-style writes, absorbed by the cache;
				// every 8th file is truncated while still dirty so the
				// truncate barrier runs too.
				stream := core.StreamID{Client: uint32(d), PID: uint32(i % 4)}
				blocks := int64(16 + i%48)
				for off := int64(0); off < blocks; off += 4 {
					n := int64(4)
					if off+n > blocks {
						n = blocks - off
					}
					if err := h.Write(stream, off, n); err != nil {
						return nil, err
					}
				}
				if i%8 == 0 {
					if err := h.Truncate(blocks / 2); err != nil {
						return nil, err
					}
				}
			}
			if err := h.Close(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < files; i += 9 {
			if err := pf.Delete(dir, fmt.Sprintf("f%05d", i)); err != nil {
				return nil, err
			}
		}
	}
	return pf, nil
}

// check loads an image and walks it, returning the exit-code contract
// documented in the package comment: 0 clean, 1 corrupt or unreadable,
// 2 repaired (journal replay re-applied committed records, then clean).
func check(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	if err := parse(fs, args, 1); err != nil {
		return 0, err
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	defer in.Close()
	m, err := mdfs.LoadImage(bufio.NewReader(in))
	if err != nil {
		return 0, err
	}
	repaired := m.Store().DirtyBlocks()
	report := m.Fsck()
	fmt.Fprintf(stdout, "%s: %d directories, %d files, %d reachable metadata blocks\n",
		fs.Arg(0), report.Dirs, report.Files, report.ReachableBlocks)
	for _, a := range report.Advisories {
		fmt.Fprintf(stdout, "advisory: %s\n", a)
	}
	if !report.Clean() {
		for _, p := range report.Problems {
			fmt.Fprintf(stdout, "PROBLEM: %s\n", p)
		}
		return 1, nil
	}
	if repaired > 0 {
		fmt.Fprintf(stdout, "repaired: journal replay re-applied %d metadata blocks\n", repaired)
		return 2, nil
	}
	fmt.Fprintln(stdout, "clean")
	return 0, nil
}
