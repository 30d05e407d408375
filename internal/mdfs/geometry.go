package mdfs

import (
	"fmt"
	"strings"
)

// Layout selects the directory placement algorithm.
type Layout int

// Directory layouts.
const (
	// LayoutNormal is the traditional placement: directory-entry blocks
	// in the data area, inodes in per-group inode tables (ext3-like).
	LayoutNormal Layout = iota
	// LayoutEmbedded is the MiF embedded directory: inodes and layout
	// mappings allocated from the directory content, entry blocks
	// omitted from the on-disk layout.
	LayoutEmbedded
)

// layoutNames is the one name table behind String and ParseLayout.
var layoutNames = [...]string{
	LayoutNormal:   "normal",
	LayoutEmbedded: "embedded",
}

// String names the layout for reports.
func (l Layout) String() string {
	if l >= 0 && int(l) < len(layoutNames) {
		return layoutNames[l]
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// ParseLayout returns the layout String names, or an error listing the
// known names.
func ParseLayout(name string) (Layout, error) {
	for l, n := range layoutNames {
		if n == name {
			return Layout(l), nil
		}
	}
	return 0, fmt.Errorf("mdfs: unknown layout %q (want one of %s)", name, strings.Join(layoutNames[:], ", "))
}

// Geometry is the on-disk arrangement of the metadata file system,
// computed at format time.
//
//	block 0                superblock
//	[1, 1+J)               journal region
//	[1+J, 1+J+T)           global directory table (embedded layout)
//	remaining blocks       groups of GroupBlocks:
//	    +0                 block bitmap
//	    +1                 inode bitmap      (normal layout)
//	    +2 .. +2+IT        inode table       (normal layout)
//	    rest               data blocks (directory entries/content, spill)
type Geometry struct {
	Blocks         int64
	JournalStart   int64
	JournalBlocks  int64
	TableStart     int64
	TableBlocks    int64
	GroupsStart    int64
	GroupBlocks    int64
	Groups         int64
	InodesPerGroup int64
	ITableBlocks   int64 // per group
	InodesPerBlock int64
}

// computeGeometry validates the configuration and lays out the device.
func computeGeometry(cfg Config) (Geometry, error) {
	g := Geometry{
		Blocks:         cfg.Blocks,
		JournalStart:   1,
		JournalBlocks:  cfg.JournalBlocks,
		GroupBlocks:    cfg.GroupBlocks,
		InodesPerGroup: cfg.InodesPerGroup,
		InodesPerBlock: int64(cfg.BlockSize) / recordSize,
	}
	if g.InodesPerBlock < 1 {
		return g, fmt.Errorf("mdfs: block size %d below inode record size", cfg.BlockSize)
	}
	g.TableStart = g.JournalStart + g.JournalBlocks
	g.TableBlocks = cfg.TableBlocks
	g.GroupsStart = g.TableStart + g.TableBlocks
	g.ITableBlocks = (g.InodesPerGroup + g.InodesPerBlock - 1) / g.InodesPerBlock
	if g.GroupBlocks < g.ITableBlocks+3 {
		return g, fmt.Errorf("mdfs: group of %d blocks cannot hold %d inode-table blocks", g.GroupBlocks, g.ITableBlocks)
	}
	g.Groups = (cfg.Blocks - g.GroupsStart) / g.GroupBlocks
	// A tail too short for a full group still forms a partial group when
	// it can hold the group metadata plus a useful data region; wasting
	// it would inflate the format-time utilization.
	if tail := (cfg.Blocks - g.GroupsStart) % g.GroupBlocks; tail >= g.ITableBlocks+3+64 {
		g.Groups++
	}
	if g.Groups < 1 {
		return g, fmt.Errorf("mdfs: device of %d blocks too small for one group", cfg.Blocks)
	}
	return g, nil
}

// groupEnd returns the block just past group i, clipped at the device end
// for a partial tail group.
func (g Geometry) groupEnd(i int64) int64 {
	end := g.groupBase(i + 1)
	if end > g.Blocks {
		end = g.Blocks
	}
	return end
}

// groupBase returns the first block of group i.
func (g Geometry) groupBase(i int64) int64 { return g.GroupsStart + i*g.GroupBlocks }

// blockBitmapBlock returns the block-bitmap block of group i.
func (g Geometry) blockBitmapBlock(i int64) int64 { return g.groupBase(i) }

// inodeBitmapBlock returns the inode-bitmap block of group i.
func (g Geometry) inodeBitmapBlock(i int64) int64 { return g.groupBase(i) + 1 }

// itableStart returns the first inode-table block of group i.
func (g Geometry) itableStart(i int64) int64 { return g.groupBase(i) + 2 }

// dataStart returns the first data block of group i.
func (g Geometry) dataStart(i int64) int64 { return g.itableStart(i) + g.ITableBlocks }

// groupOf returns the group containing data block b, or -1 for blocks
// outside the group area.
func (g Geometry) groupOf(b int64) int64 {
	if b < g.GroupsStart {
		return -1
	}
	gi := (b - g.GroupsStart) / g.GroupBlocks
	if gi >= g.Groups {
		return -1
	}
	return gi
}

// hasSlot reports whether slot numbers a normal-layout inode-table slot.
func (g Geometry) hasSlot(slot int64) bool { return slot >= 0 && slot < g.Groups*g.InodesPerGroup }

// slotLocation maps a normal-layout inode slot to its inode-table block and
// byte offset.
func (g Geometry) slotLocation(slot int64) (block int64, off int) {
	group := slot / g.InodesPerGroup
	idx := slot % g.InodesPerGroup
	return g.itableStart(group) + idx/g.InodesPerBlock, int((idx % g.InodesPerBlock) * recordSize)
}
