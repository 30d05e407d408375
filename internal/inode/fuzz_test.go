package inode

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"redbud/internal/extent"
	"redbud/internal/sim"
)

// TestUnmarshalNeverPanicsProperty: arbitrary record bytes must either
// parse or fail with an error — never panic and never produce an inode
// that re-marshals out of bounds. The metadata file system reads records
// from blocks that crash recovery or corruption may have scrambled.
func TestUnmarshalNeverPanicsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		buf := make([]byte, RecordSize)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		rec, err := Unmarshal(buf)
		if err != nil {
			return true // rejected: fine
		}
		// Anything accepted must round-trip through Marshal.
		out, err := rec.Marshal()
		if err != nil {
			return false
		}
		rec2, err := Unmarshal(out)
		if err != nil {
			return false
		}
		return rec2.Ino == rec.Ino && rec2.Name == rec.Name && len(rec2.Inline) == len(rec.Inline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalShortBuffers: every length below RecordSize errors cleanly.
func TestUnmarshalShortBuffers(t *testing.T) {
	for n := 0; n < RecordSize; n += 13 {
		if _, err := Unmarshal(make([]byte, n)); err == nil {
			t.Fatalf("length %d should be rejected", n)
		}
	}
}

// randomInode draws a valid inode: every field random, a name of up to
// MaxNameLen bytes and up to InlineExtents inline extents (nil when none,
// as Unmarshal leaves it). full draws the longest name and the most
// extents.
func randomInode(rng *sim.Rand, full bool) *Inode {
	n := &Inode{
		Ino:         Ino(rng.Uint64()),
		Mode:        Mode(rng.Intn(3)),
		Nlink:       uint16(rng.Uint64()),
		Size:        int64(rng.Uint64()),
		MTime:       int64(rng.Uint64()),
		CTime:       int64(rng.Uint64()),
		ExtentCount: uint32(rng.Uint64()),
		OldIno:      Ino(rng.Uint64()),
		DirID:       uint32(rng.Uint64()),
		Aux:         uint32(rng.Uint64()),
	}
	for i := range n.Spill {
		n.Spill[i] = int64(rng.Uint64())
	}
	nameLen, inline := rng.Intn(MaxNameLen+1), rng.Intn(InlineExtents+1)
	if full {
		nameLen, inline = MaxNameLen, InlineExtents
	}
	name := make([]byte, nameLen)
	for i := range name {
		name[i] = 'a' + byte(rng.Intn(26))
	}
	n.Name = string(name)
	for i := 0; i < inline; i++ {
		n.Inline = append(n.Inline, extent.Extent{
			Logical:  int64(rng.Uint64()),
			Physical: int64(rng.Uint64()),
			Count:    int64(rng.Uint64()),
			Flags:    uint32(rng.Uint64()),
		})
	}
	return n
}

// sameInode compares field for field; Inline compares by content, so an
// empty slice equals nil.
func sameInode(a, b *Inode) bool {
	ai, bi := *a, *b
	ai.Inline, bi.Inline = nil, nil
	return reflect.DeepEqual(ai, bi) && slices.Equal(a.Inline, b.Inline)
}

// TestCallerOwnedCodecProperty: MarshalTo agrees byte for byte with
// Marshal whatever its destination held, and writes nothing past the
// record; UnmarshalFrom agrees field for field with Unmarshal when it
// decodes into a reused inode that last held the largest record there is
// — the longest name, every inline extent — so nothing stale leaks into
// the fields or into a re-encoding.
func TestCallerOwnedCodecProperty(t *testing.T) {
	reused := new(Inode)
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		n := randomInode(rng, false)
		want, err := n.Marshal()
		if err != nil {
			return false
		}
		dst := make([]byte, RecordSize+16)
		for i := range dst {
			dst[i] = 0xA5
		}
		if err := n.MarshalTo(dst); err != nil || !bytes.Equal(dst[:RecordSize], want) {
			return false
		}
		if slices.ContainsFunc(dst[RecordSize:], func(c byte) bool { return c != 0xA5 }) {
			return false
		}

		big, err := randomInode(rng, true).Marshal()
		if err != nil || reused.UnmarshalFrom(big) != nil || len(reused.Inline) != InlineExtents {
			return false
		}
		if err := reused.UnmarshalFrom(want); err != nil {
			return false
		}
		ref, err := Unmarshal(want)
		if err != nil || !sameInode(reused, ref) || !sameInode(ref, n) {
			return false
		}
		again, err := reused.Marshal()
		return err == nil && bytes.Equal(again, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalFromMatchesUnmarshalProperty: on arbitrary bytes the two
// decoders accept and reject alike, agree field for field on what they
// accept, and a rejected record leaves the reused inode as it was.
func TestUnmarshalFromMatchesUnmarshalProperty(t *testing.T) {
	reused := new(Inode)
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		buf := make([]byte, RecordSize)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		// Keep half the records inside the length fields' bounds, so both
		// outcomes are drawn often.
		if rng.Intn(2) == 0 {
			buf[offNameLen] %= MaxNameLen + 1
			buf[offInlineN] %= InlineExtents + 1
		}
		before := *reused
		before.Inline = slices.Clone(reused.Inline)
		ref, refErr := Unmarshal(buf)
		err := reused.UnmarshalFrom(buf)
		if (err == nil) != (refErr == nil) {
			return false
		}
		if err != nil {
			return sameInode(reused, &before)
		}
		return sameInode(reused, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalFieldsMatchesUnmarshalFromProperty: over arbitrary 256-byte
// records the name-free decode accepts and rejects exactly what
// UnmarshalFrom does, sets every field but Name the same way and Name to
// "", RecordName is the name UnmarshalFrom decodes, and a rejected record
// leaves the reused inode as it was.
func TestUnmarshalFieldsMatchesUnmarshalFromProperty(t *testing.T) {
	fields := new(Inode)
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		buf := make([]byte, RecordSize)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		// Keep half the records inside the length fields' bounds, so both
		// outcomes are drawn often, and start half the draws from an inode
		// holding a name, so that clearing it is checked.
		if rng.Intn(2) == 0 {
			buf[offNameLen] %= MaxNameLen + 1
			buf[offInlineN] %= InlineExtents + 1
		}
		if rng.Intn(2) == 0 {
			fields.Name = "stale"
		}
		before := *fields
		before.Inline = slices.Clone(fields.Inline)
		ref := new(Inode)
		refErr := ref.UnmarshalFrom(buf)
		err := fields.UnmarshalFields(buf)
		if (err == nil) != (refErr == nil) {
			return false
		}
		if err != nil {
			return sameInode(fields, &before)
		}
		if fields.Name != "" || string(RecordName(buf)) != ref.Name {
			return false
		}
		named := *fields
		named.Name = ref.Name
		return sameInode(&named, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalToRejectsWithoutWriting: an inode that does not fit a record,
// or a destination shorter than one, is an error that leaves the
// destination untouched.
func TestMarshalToRejectsWithoutWriting(t *testing.T) {
	rng := sim.NewRand(3)
	long := randomInode(rng, true)
	long.Name += "x"
	wide := randomInode(rng, true)
	wide.Inline = append(wide.Inline, extent.Extent{Count: 1})
	for _, c := range []struct {
		name string
		n    *Inode
		dst  int
	}{
		{"name too long", long, RecordSize},
		{"too many inline extents", wide, RecordSize},
		{"short destination", randomInode(rng, false), RecordSize - 1},
	} {
		dst := bytes.Repeat([]byte{0xA5}, c.dst)
		if err := c.n.MarshalTo(dst); err == nil {
			t.Errorf("%s: MarshalTo succeeded", c.name)
		}
		if slices.ContainsFunc(dst, func(c byte) bool { return c != 0xA5 }) {
			t.Errorf("%s: MarshalTo wrote into the destination", c.name)
		}
	}
}
