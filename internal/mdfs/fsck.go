package mdfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"redbud/internal/alloc"
	"redbud/internal/inode"
	"redbud/internal/telemetry"
)

// Fsck is organized as a pFSCK-style two-stage pipeline:
//
//   - a scan stage — one loop over a work list of directories, seeded with
//     the root record and grown as subdirectories are discovered, then one
//     task per block group (allocator occupancy, inode bitmaps) and one
//     for the global directory table — emits typed claims (block
//     ownership, inode references, parent→child directory edges, degree
//     sums) through a read-only store view and never touches the
//     simulated disk;
//   - a resolution stage merges the claim sets and derives every
//     cross-task finding: duplicate block ownership, reachable-but-
//     unallocated blocks, allocated-but-unreachable blocks (leaks),
//     orphaned inodes and directory-table entries, and directory
//     re-entry (cycles and cross-links) from the edge multiset.
//
// Determinism: scan tasks record findings locally; the resolution stage
// sorts results, claims, and edges by on-disk location before deriving
// findings, and the final problem and advisory lists are sorted before
// the report is returned — so the report does not depend on the order the
// scan visited anything in. Fsck must only be called between operations
// (the store quiescent), the same contract Remount has.

// FsckOptions tunes a check. The zero value is an untelemetered scan —
// exactly what Fsck() runs.
type FsckOptions struct {
	// Workers is ignored: the scan is one loop. The field stays only until
	// bench/, which sets it, can be edited.
	Workers int
	// Metrics, when set, receives the layer=fsck counters (scan tasks,
	// blocks scanned, claims, findings), all deterministic.
	Metrics *telemetry.Registry
	// Trace, when set, records per-stage fsck spans (scan, resolve).
	Trace *telemetry.Tracer
}

// FsckReport is the result of a consistency check.
type FsckReport struct {
	// Dirs and Files count the reachable namespace.
	Dirs  int
	Files int
	// ReachableBlocks counts metadata blocks owned by reachable objects
	// (directory content/entries, spill blocks).
	ReachableBlocks int64
	// Problems lists every inconsistency found (sorted), empty for a
	// clean file system.
	Problems []string
	// Advisories are non-fatal drifts in heuristic bookkeeping (the
	// fragmentation-degree numerator is persisted lazily by design).
	Advisories []string
}

// Clean reports whether the check found no problems.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

// problemf appends a formatted finding.
func (r *FsckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck walks the on-disk state from the superblock — independently of the
// in-memory namespace — and verifies the structural invariants:
//
//   - the superblock is valid and the root record is a directory;
//   - every reachable inode record parses and its Ino matches its
//     location (embedded: directory identification and slot);
//   - no two objects claim the same metadata block (content, entry, or
//     spill), and no directory record is referenced twice (a dirent
//     pointing at an ancestor or an already-linked directory is a cycle
//     or cross-link, reported instead of recursed into);
//   - every reachable metadata block is marked allocated in the space
//     allocator, and — the reverse pass — every dynamically allocated
//     block is reachable (otherwise it leaked);
//   - embedded: every directory's table entry resolves back to it, every
//     live table entry belongs to a reachable directory, the record's
//     Size stays within [files, files+subdirs], and the stored
//     fragmentation-degree numerator matches the sum of its files'
//     mapping-unit counts (advisory);
//   - normal: every reachable inode's slot is set in the inode bitmap,
//     and every set bit is referenced by some dirent (else orphaned).
func (fs *FS) Fsck() *FsckReport { return fs.FsckWith(FsckOptions{}) }

// FsckWith runs the check with explicit telemetry options.
func (fs *FS) FsckWith(opt FsckOptions) *FsckReport {
	r := &FsckReport{}
	w, rec := fs.fsckRoot(r)
	if w == nil {
		return r
	}

	span := opt.Trace.Start("fsck", "fsck", 0)
	scan := opt.Trace.Start("fsck", "scan", span.ID())
	w.scan(rec)
	scan.AnnotateInt("tasks", w.tasks)
	scan.AnnotateInt("blocks", w.blocks)
	scan.End()

	resolve := opt.Trace.Start("fsck", "resolve", span.ID())
	fs.fsckResolve(r, w)
	resolve.End()
	span.AnnotateInt("dirs", int64(r.Dirs))
	span.AnnotateInt("problems", int64(len(r.Problems)))
	span.End()

	if m := opt.Metrics; m != nil {
		labels := telemetry.Labels{"layer": "fsck"}
		m.Counter("fsck_runs", labels).Inc()
		m.Counter("fsck_scan_tasks", labels).Add(w.tasks)
		m.Counter("fsck_blocks_scanned", labels).Add(w.blocks)
		m.Counter("fsck_claims", labels).Add(w.claimed)
		m.Counter("fsck_problems", labels).Add(int64(len(r.Problems)))
		m.Counter("fsck_advisories", labels).Add(int64(len(r.Advisories)))
		h := m.Histogram("fsck_task_blocks", labels)
		for _, d := range w.dirs { // sorted by fsckResolve: deterministic
			h.Observe(d.blocks)
		}
	}
	return r
}

// fsckRoot validates the superblock and the root record and returns the
// walker to scan from them, or nil — the finding is in r — when there is
// no root to walk from.
func (fs *FS) fsckRoot(r *FsckReport) (*fsckWalker, *inode.Inode) {
	view := fs.store.View()
	sb := view.Read(0)
	le := binary.LittleEndian
	if le.Uint32(sb[offSMagic:]) != superMagic {
		r.problemf("superblock: bad magic %#x", le.Uint32(sb[offSMagic:]))
		return nil, nil
	}
	if Layout(le.Uint32(sb[offSLayout:])) != fs.cfg.Layout {
		r.problemf("superblock: layout mismatch")
		return nil, nil
	}
	rootBlk := int64(le.Uint64(sb[offSRootBlk:]))
	rootOff := int(le.Uint64(sb[offSRootOff:]))
	w := &fsckWalker{
		fs:      fs,
		view:    view,
		rootKey: recKey{rootBlk, rootOff},
		rootIno: inode.Ino(le.Uint64(sb[offSRootIno:])),
		visited: make(map[recKey]bool),
	}
	rec, err := w.inodeAt(rootBlk, rootOff)
	if err != nil {
		r.problemf("root record: %v", err)
		return nil, nil
	}
	if !rec.IsDir() {
		r.problemf("root record is not a directory (mode %d)", rec.Mode)
		return nil, nil
	}
	return w, rec
}

// fsckResolve is the cross-task resolution stage: it merges the scan
// results in an order of its own and derives every finding that needs
// more than one task's view.
func (fs *FS) fsckResolve(r *FsckReport, w *fsckWalker) {
	sort.Slice(w.dirs, func(i, j int) bool { return w.dirs[i].key.less(w.dirs[j].key) })
	sort.Slice(w.groups, func(i, j int) bool { return w.groups[i].group < w.groups[j].group })

	var problems, advisories []string
	var claims []fsckClaim
	var edges []fsckEdge
	refs := map[int64]bool{0: true} // reserved slot, never a dirent target
	if fs.cfg.Layout == LayoutNormal {
		refs[int64(w.rootIno)] = true
	}
	dirIDs := map[uint32][]string{}
	r.Dirs = len(w.dirs)
	for _, d := range w.dirs {
		r.Files += int(d.files)
		problems = append(problems, d.problems...)
		advisories = append(advisories, d.advisories...)
		claims = append(claims, d.claims...)
		edges = append(edges, d.edges...)
		for _, s := range d.inodeRefs {
			refs[s] = true
		}
		if fs.cfg.Layout == LayoutEmbedded && d.dirID != 0 {
			dirIDs[d.dirID] = append(dirIDs[d.dirID], d.desc)
		}
	}
	w.claimed = int64(len(claims))

	// Forward pass: duplicate ownership, reachable-but-unallocated.
	sort.Slice(claims, func(i, j int) bool {
		if claims[i].blk != claims[j].blk {
			return claims[i].blk < claims[j].blk
		}
		return claims[i].what < claims[j].what
	})
	reach := make([]int64, 0, len(claims))
	for i := 0; i < len(claims); {
		j := i
		for j < len(claims) && claims[j].blk == claims[i].blk {
			j++
		}
		blk := claims[i].blk
		reach = append(reach, blk)
		for k := i + 1; k < j; k++ {
			problems = append(problems, fmt.Sprintf("block %d claimed by both %s and %s",
				blk, claims[i].what, claims[k].what))
		}
		if !fs.alloc.Allocated(alloc.Range{Start: blk, Count: 1}) {
			problems = append(problems, fmt.Sprintf("block %d (%s) reachable but not allocated",
				blk, claims[i].what))
		}
		i = j
	}
	r.ReachableBlocks = int64(len(reach))

	// Reverse pass: every dynamically allocated block (the group data
	// areas — the fixed regions are reserved at format time and never
	// freed) must be claimed by something reachable, or it leaked.
	inReach := func(b int64) bool {
		idx := sort.Search(len(reach), func(i int) bool { return reach[i] >= b })
		return idx < len(reach) && reach[idx] == b
	}
	var leaked []int64
	for _, g := range w.groups {
		for _, run := range g.allocated {
			for b := run.Start; b < run.End(); b++ {
				if !inReach(b) {
					leaked = append(leaked, b)
				}
			}
		}
	}
	for i := 0; i < len(leaked); {
		j := i
		for j+1 < len(leaked) && leaked[j+1] == leaked[j]+1 {
			j++
		}
		if i == j {
			problems = append(problems, fmt.Sprintf("block %d allocated but unreachable (leaked)", leaked[i]))
		} else {
			problems = append(problems, fmt.Sprintf("blocks [%d,%d) allocated but unreachable (leaked)",
				leaked[i], leaked[j]+1))
		}
		i = j + 1
	}

	// Reverse pass, inode side.
	if fs.cfg.Layout == LayoutNormal {
		for _, g := range w.groups {
			for _, slot := range g.setSlots {
				if !refs[slot] {
					problems = append(problems, fmt.Sprintf(
						"inode %d set in inode bitmap but referenced by no dirent (orphan)", slot))
				}
			}
		}
	} else {
		ids := make([]uint32, 0, len(dirIDs))
		for id := range dirIDs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			owners := dirIDs[id]
			if len(owners) > 1 {
				sort.Strings(owners)
				for _, o := range owners[1:] {
					problems = append(problems, fmt.Sprintf("directory id %d used by both %s and %s",
						id, owners[0], o))
				}
			}
		}
		for _, te := range w.table {
			if len(dirIDs[te.dirID]) == 0 {
				problems = append(problems, fmt.Sprintf(
					"directory table entry %d (self %v) references no reachable directory (orphan)",
					te.dirID, te.self))
			}
		}
	}

	// Edge analysis: every non-root directory record must be referenced
	// exactly once; the root never. A second incoming edge means a dirent
	// points at an ancestor or an already-linked directory — the cycles
	// and cross-links the scan stage refused to recurse into.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].child != edges[j].child {
			return edges[i].child.less(edges[j].child)
		}
		return edges[i].from < edges[j].from
	})
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].child == edges[i].child {
			j++
		}
		group := edges[i:j]
		if group[0].child == w.rootKey {
			for _, e := range group {
				problems = append(problems, fmt.Sprintf(
					"%s references the root directory %s (directory cycle)", e.from, e.childDesc))
			}
		} else {
			for _, e := range group[1:] {
				problems = append(problems, fmt.Sprintf(
					"%s re-entered: referenced by both %s and %s (directory cycle or cross-link)",
					group[0].childDesc, group[0].from, e.from))
			}
		}
		i = j
	}

	sort.Strings(problems)
	sort.Strings(advisories)
	r.Problems = problems
	r.Advisories = advisories
}
