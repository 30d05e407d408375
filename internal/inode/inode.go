// Package inode defines the on-disk inode of the Redbud metadata file
// system and the MiF inode-number scheme.
//
// Under the embedded-directory algorithm an inode has no fixed inode-table
// slot, so "its inode number is constructed by combining its parent
// directory identification with offset in the directory. In our current
// implementation, the normal file inode number is expressed by a 64-bit
// number, and the directory identification and offset is sized at 32-bit"
// (paper §4.B). This package implements that encoding, the inode record
// layout (including the embedded layout-mapping tail), and its
// serialization.
package inode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"redbud/internal/extent"
)

// Ino is a 64-bit inode number: directory identification in the high 32
// bits, slot offset within the directory in the low 32 bits.
type Ino uint64

// RootDirID is the directory identification of the file system root.
const RootDirID uint32 = 1

// MakeIno combines a directory identification and a slot offset.
func MakeIno(dirID uint32, offset uint32) Ino {
	return Ino(uint64(dirID)<<32 | uint64(offset))
}

// DirID returns the parent-directory identification encoded in the number.
func (i Ino) DirID() uint32 { return uint32(uint64(i) >> 32) }

// Offset returns the slot offset encoded in the number.
func (i Ino) Offset() uint32 { return uint32(uint64(i)) }

// String renders the inode number as dirID:offset.
func (i Ino) String() string { return fmt.Sprintf("%d:%d", i.DirID(), i.Offset()) }

// Mode distinguishes the inode types.
type Mode uint8

// Inode modes.
const (
	ModeNone Mode = iota
	ModeFile
	ModeDir
)

// RecordSize is the serialized inode size in bytes. 16 records fit a
// 4 KiB block, matching ext3's 256-byte large inodes.
const RecordSize = 256

// InlineExtents is the number of layout-mapping units that fit in the
// inode tail before spill blocks are needed. The layout mapping "is stuffed
// into the tail of file inode (or the block contiguous to the inode block
// if the mapping structure is too large)".
const InlineExtents = 4

// MaxNameLen bounds the file name stored inside the record (embedded
// directories omit separate entry blocks, so the name lives here).
const MaxNameLen = 48

// SpillSlots is the number of spill-block pointers in the inode ("two
// pointers in inode structure are reserved to indicate the address of
// extra blocks").
const SpillSlots = 2

// Inode is the in-memory form of one inode record.
type Inode struct {
	Ino   Ino
	Mode  Mode
	Nlink uint16
	Size  int64 // bytes
	MTime int64 // simulated ns
	CTime int64 // simulated ns
	// Name is the file's name within its directory. Only the embedded
	// layout persists it in the record; the normal layout keeps names in
	// directory-entry blocks.
	Name string
	// Inline is the head of the layout mapping, stuffed in the record
	// tail (at most InlineExtents entries).
	Inline []extent.Extent
	// Spill points at the extra blocks holding overflow mapping
	// structures; zero entries are empty slots.
	Spill [SpillSlots]int64
	// ExtentCount is the total number of layout-mapping units, inline
	// plus spilled. It feeds the directory's fragmentation degree.
	ExtentCount uint32
	// OldIno preserves the pre-rename identity: "when renaming, the
	// additional structure to correlate the old and new inodes is kept".
	// Zero means no correlation.
	OldIno Ino
	// DirID is the directory identification this inode *is* (directories
	// only): the key under which the global directory table maps it.
	DirID uint32
	// Aux is a per-type scratch field. Directory records store their
	// fragmentation-degree numerator (Σ subfile layout-mapping units) in
	// it, so the degree survives remounts.
	Aux uint32
}

// Errors returned by the codec.
var (
	ErrNameTooLong   = errors.New("inode: name exceeds MaxNameLen")
	ErrTooManyInline = errors.New("inode: inline extents exceed InlineExtents")
	ErrBadRecord     = errors.New("inode: malformed record")
)

// record field offsets within the 256-byte layout.
const (
	offIno      = 0   // 8 bytes
	offMode     = 8   // 1 byte
	offNlink    = 10  // 2 bytes
	offSize     = 16  // 8 bytes
	offMTime    = 24  // 8 bytes
	offCTime    = 32  // 8 bytes
	offExtCount = 40  // 4 bytes
	offOldIno   = 44  // 8 bytes
	offSpill    = 52  // 2 × 8 bytes
	offNameLen  = 68  // 1 byte
	offName     = 69  // MaxNameLen bytes
	offInlineN  = 117 // 1 byte
	offInline   = 120 // InlineExtents × 32 bytes = 128
	offDirID    = 248 // 4 bytes
	offAux      = 252 // 4 bytes
)

// Validate reports whether the inode fits a record: the errors Marshal
// and MarshalTo return.
func (n *Inode) Validate() error {
	if len(n.Name) > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrNameTooLong, n.Name)
	}
	if len(n.Inline) > InlineExtents {
		return fmt.Errorf("%w: %d", ErrTooManyInline, len(n.Inline))
	}
	return nil
}

// Marshal serializes the inode into a new RecordSize-byte record.
func (n *Inode) Marshal() ([]byte, error) {
	buf := make([]byte, RecordSize)
	if err := n.MarshalTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalTo serializes the inode into dst[:RecordSize], the caller's
// buffer — typically the record's slot inside a block buffer. Every byte
// of the record is written, so dst's previous contents never leak through.
// It writes nothing when it returns an error.
func (n *Inode) MarshalTo(dst []byte) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if len(dst) < RecordSize {
		return fmt.Errorf("%w: %d-byte destination", ErrBadRecord, len(dst))
	}
	buf := dst[:RecordSize]
	clear(buf)
	le := binary.LittleEndian
	le.PutUint64(buf[offIno:], uint64(n.Ino))
	buf[offMode] = byte(n.Mode)
	le.PutUint16(buf[offNlink:], n.Nlink)
	le.PutUint64(buf[offSize:], uint64(n.Size))
	le.PutUint64(buf[offMTime:], uint64(n.MTime))
	le.PutUint64(buf[offCTime:], uint64(n.CTime))
	le.PutUint32(buf[offExtCount:], n.ExtentCount)
	le.PutUint64(buf[offOldIno:], uint64(n.OldIno))
	for i, s := range n.Spill {
		le.PutUint64(buf[offSpill+8*i:], uint64(s))
	}
	buf[offNameLen] = byte(len(n.Name))
	copy(buf[offName:], n.Name)
	le.PutUint32(buf[offDirID:], n.DirID)
	le.PutUint32(buf[offAux:], n.Aux)
	buf[offInlineN] = byte(len(n.Inline))
	for i, e := range n.Inline {
		base := offInline + 32*i
		le.PutUint64(buf[base:], uint64(e.Logical))
		le.PutUint64(buf[base+8:], uint64(e.Physical))
		le.PutUint64(buf[base+16:], uint64(e.Count))
		le.PutUint32(buf[base+24:], e.Flags)
	}
	return nil
}

// Unmarshal parses a RecordSize-byte record into a new inode.
func Unmarshal(buf []byte) (*Inode, error) {
	n := new(Inode)
	if err := n.UnmarshalFrom(buf); err != nil {
		return nil, err
	}
	return n, nil
}

// UnmarshalFrom parses a RecordSize-byte record into n, overwriting every
// field. It reuses n's Inline backing array, and n's Name when the record
// holds the same name, so decoding into a long-lived inode allocates
// nothing on the hot paths; buf is not retained. On error n is unchanged.
func (n *Inode) UnmarshalFrom(buf []byte) error {
	name := n.Name
	if err := n.UnmarshalFields(buf); err != nil {
		return err
	}
	// The comparison does not allocate; the conversion only runs when the
	// name differs.
	if rec := RecordName(buf); string(rec) != name {
		name = string(rec)
	}
	n.Name = name
	return nil
}

// UnmarshalFields is UnmarshalFrom without the name: it parses every field
// but Name, which it sets to "", so a walk that never reports a record's
// name decodes it without allocating. It accepts and rejects exactly what
// UnmarshalFrom does; on error n is unchanged.
func (n *Inode) UnmarshalFields(buf []byte) error {
	if len(buf) < RecordSize {
		return fmt.Errorf("%w: %d bytes", ErrBadRecord, len(buf))
	}
	nameLen := int(buf[offNameLen])
	if nameLen > MaxNameLen {
		return fmt.Errorf("%w: name length %d", ErrBadRecord, nameLen)
	}
	inlineN := int(buf[offInlineN])
	if inlineN > InlineExtents {
		return fmt.Errorf("%w: inline count %d", ErrBadRecord, inlineN)
	}
	le := binary.LittleEndian
	n.Ino = Ino(le.Uint64(buf[offIno:]))
	n.Mode = Mode(buf[offMode])
	n.Nlink = le.Uint16(buf[offNlink:])
	n.Size = int64(le.Uint64(buf[offSize:]))
	n.MTime = int64(le.Uint64(buf[offMTime:]))
	n.CTime = int64(le.Uint64(buf[offCTime:]))
	n.ExtentCount = le.Uint32(buf[offExtCount:])
	n.OldIno = Ino(le.Uint64(buf[offOldIno:]))
	n.DirID = le.Uint32(buf[offDirID:])
	n.Aux = le.Uint32(buf[offAux:])
	for i := range n.Spill {
		n.Spill[i] = int64(le.Uint64(buf[offSpill+8*i:]))
	}
	n.Name = ""
	n.Inline = n.Inline[:0]
	for i := 0; i < inlineN; i++ {
		base := offInline + 32*i
		n.Inline = append(n.Inline, extent.Extent{
			Logical:  int64(le.Uint64(buf[base:])),
			Physical: int64(le.Uint64(buf[base+8:])),
			Count:    int64(le.Uint64(buf[base+16:])),
			Flags:    le.Uint32(buf[base+24:]),
		})
	}
	return nil
}

// RecordName returns the name bytes of a record UnmarshalFields accepts,
// aliasing buf: convert them with string() to keep the name past buf.
func RecordName(buf []byte) []byte {
	return buf[offName : offName+int(buf[offNameLen])]
}

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.Mode == ModeDir }
