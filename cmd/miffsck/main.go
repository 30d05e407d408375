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
//	    not be read; sweep: a run failed to recover consistent.
//	2 — check: the image was dirty but repaired — journal replay had to
//	    re-apply committed records, after which the walk came up clean.
package main

import (
	"flag"
	"fmt"
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
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "check":
		os.Exit(check(os.Args[2:]))
	case "sweep":
		os.Exit(sweep(os.Args[2:]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: miffsck {gen|check|sweep} [flags] [image]")
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	layoutName := fs.String("layout", "embedded", "embedded|normal")
	dirs := fs.Int("dirs", 4, "directories to create")
	files := fs.Int("files", 200, "files per directory")
	journalOnly := fs.Bool("journal-only", false, "leave the last changes un-checkpointed (crash image)")
	defrag := fs.Bool("defrag", false, "rewrite every live file's layout as one coalesced extent (a completed defrag pass)")
	cached := fs.Bool("cache", false, "populate through a client-cached Redbud mount (flush barriers write the metadata)")
	corrupt := fs.String("corrupt", "", "damage the finished file system on disk (cycle|dup-claim|size-over|table-orphan)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if *cached && *defrag {
		fatal(fmt.Errorf("-cache and -defrag are mutually exclusive"))
	}
	if *cached && *corrupt != "" {
		fatal(fmt.Errorf("-cache and -corrupt are mutually exclusive"))
	}

	layout := mdfs.LayoutEmbedded
	if *layoutName == "normal" {
		layout = mdfs.LayoutNormal
	}
	if *cached {
		genCached(layout, *dirs, *files, *journalOnly, fs.Arg(0))
		return
	}
	m, err := mdfs.New(mdfs.DefaultConfig(layout))
	if err != nil {
		fatal(err)
	}
	// fragmented remembers each surviving laid-out file for -defrag.
	type laidOut struct {
		ino    inode.Ino
		blocks int64
	}
	var fragmented []laidOut
	for d := 0; d < *dirs; d++ {
		dir, err := m.Mkdir(m.Root(), fmt.Sprintf("dir%02d", d))
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *files; i++ {
			ino, err := m.Create(dir, fmt.Sprintf("f%05d", i))
			if err != nil {
				fatal(err)
			}
			if i%4 == 0 {
				var exts []extent.Extent
				var blocks int64
				for j := 0; j < 8+i%40; j++ {
					exts = append(exts, extent.Extent{Logical: int64(j) * 2, Physical: int64(d*100000 + i*64 + j*4), Count: 2})
					blocks += 2
				}
				if err := m.SetLayout(ino, exts); err != nil {
					fatal(err)
				}
				if i%9 != 0 { // survives the deletion pass below
					fragmented = append(fragmented, laidOut{ino: ino, blocks: blocks})
				}
			}
		}
		for i := 0; i < *files; i += 9 {
			if err := m.Unlink(dir, fmt.Sprintf("f%05d", i)); err != nil {
				fatal(err)
			}
		}
	}
	if *defrag {
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
				fatal(err)
			}
			base += f.blocks
		}
	}
	if *corrupt != "" {
		// InjectCorruption commits and checkpoints the damage itself, so
		// the image carries it in the home blocks.
		if err := m.InjectCorruption(*corrupt); err != nil {
			fatal(err)
		}
	}
	if *journalOnly {
		if err := m.Store().Commit(); err != nil {
			fatal(err)
		}
	} else {
		if err := m.Sync(); err != nil {
			fatal(err)
		}
	}
	out, err := os.Create(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer out.Close()
	if err := m.SaveImage(out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%s layout, %d dirs x %d files, defrag=%v, journal-only=%v)\n",
		fs.Arg(0), layout, *dirs, *files, *defrag, *journalOnly)
}

// genCached populates a full client-cached Redbud mount — writes land in
// the client block cache and reach the servers only through the close,
// truncate, delete, and sync flush barriers — then saves the MDS metadata
// image those barriers produced. A clean check of the image proves the
// barriers leave the metadata file system structurally consistent.
func genCached(layout mdfs.Layout, dirs, files int, journalOnly bool, out string) {
	cfg := pfs.MiF(2)
	cfg.MDS = mds.DefaultConfig(layout)
	cc := cache.DefaultConfig()
	cfg.Cache = &cc
	pf, err := pfs.New(cfg)
	if err != nil {
		fatal(err)
	}
	for d := 0; d < dirs; d++ {
		dir, err := pf.Mkdir(pf.Root(), fmt.Sprintf("dir%02d", d))
		if err != nil {
			fatal(err)
		}
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("f%05d", i)
			h, err := pf.Create(dir, name, 0)
			if err != nil {
				fatal(err)
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
						fatal(err)
					}
				}
				if i%8 == 0 {
					if err := h.Truncate(blocks / 2); err != nil {
						fatal(err)
					}
				}
			}
			if err := h.Close(); err != nil {
				fatal(err)
			}
		}
		for i := 0; i < files; i += 9 {
			if err := pf.Delete(dir, fmt.Sprintf("f%05d", i)); err != nil {
				fatal(err)
			}
		}
	}
	m := pf.MDS().FS()
	if journalOnly {
		if err := m.Store().Commit(); err != nil {
			fatal(err)
		}
	} else {
		if err := pf.Sync(); err != nil {
			fatal(err)
		}
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := m.SaveImage(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%s layout, %d dirs x %d files, via client-cached mount, journal-only=%v)\n",
		out, layout, dirs, files, journalOnly)
}

// check loads an image and walks it, returning the exit-code contract
// documented in the package comment: 0 clean, 1 corrupt or unreadable,
// 2 repaired (journal replay re-applied committed records, then clean).
func check(args []string) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "miffsck:", err)
		return 1
	}
	defer in.Close()
	m, err := mdfs.LoadImage(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "miffsck:", err)
		return 1
	}
	repaired := m.Store().DirtyBlocks()
	report := m.Fsck()
	fmt.Printf("%s: %d directories, %d files, %d reachable metadata blocks\n",
		fs.Arg(0), report.Dirs, report.Files, report.ReachableBlocks)
	for _, a := range report.Advisories {
		fmt.Printf("advisory: %s\n", a)
	}
	if !report.Clean() {
		for _, p := range report.Problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		return 1
	}
	if repaired > 0 {
		fmt.Printf("repaired: journal replay re-applied %d metadata blocks\n", repaired)
		return 2
	}
	fmt.Println("clean")
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "miffsck:", err)
	os.Exit(1)
}
