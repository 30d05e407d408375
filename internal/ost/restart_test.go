package ost

import (
	"testing"

	"redbud/internal/core"
)

func TestRestartPersistsPreallocatedWindows(t *testing.T) {
	// "Blocks in sequential window are temporarily reserved ...
	// preallocated blocks in the current window are persistent across
	// system reboot."
	s := NewServer(0, DefaultConfig())
	s.CreateObject(1, onDemandFactory, 0)
	stream := core.StreamID{Client: 1, PID: 1}
	// Sequential writes promote windows: the object ends up owning
	// preallocated blocks beyond what was written.
	for i := int64(0); i < 16; i++ {
		if err := s.Write(1, stream, i*4, 4); err != nil {
			t.Fatal(err)
		}
	}
	owned, _ := s.OwnedBlocks(1)
	if owned <= 64 {
		t.Fatalf("expected preallocation beyond the 64 written blocks, owned = %d", owned)
	}
	if s.Allocator().ReservedBlocks() == 0 {
		t.Fatal("expected a live sequential-window reservation before restart")
	}

	s.Restart()

	// Volatile reservations are gone; persistent preallocation is not.
	if n := s.Allocator().ReservedBlocks(); n != 0 {
		t.Fatalf("sequential windows must not survive a reboot: %d blocks still reserved", n)
	}
	owned2, _ := s.OwnedBlocks(1)
	if owned2 != owned {
		t.Fatalf("persistent preallocation changed across restart: %d -> %d", owned, owned2)
	}
	// Data survives and reads verify.
	if err := s.Read(1, 0, 64); err != nil {
		t.Fatal(err)
	}
	// New writes work; writes into the persisted preallocated region
	// need no new allocation.
	free := s.Allocator().FreeBlocks()
	if err := s.Write(1, stream, 64, 4); err != nil {
		t.Fatal(err)
	}
	if got := s.Allocator().FreeBlocks(); got > free {
		t.Fatal("free count must not grow on write")
	}
	s.Flush()
	if err := s.Read(1, 64, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRestartDropsDelallocBuffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAllocation = true
	s := NewServer(0, cfg)
	s.CreateObject(1, vanillaFactory, 0)
	stream := core.StreamID{Client: 1, PID: 1}
	if err := s.Write(1, stream, 0, 8); err != nil {
		t.Fatal(err)
	}
	// A crash-restart without fsync loses buffered-only data — the
	// delayed-allocation risk the paper alludes to. Model the crash by
	// dropping buffers before the restart.
	s.dropBuffers(1)
	s.Restart()
	if s.BufferedBlocks() != 0 {
		t.Fatal("buffers must not survive restart")
	}
	if err := s.Read(1, 0, 8); err == nil {
		t.Fatal("unsynced buffered data should be lost after crash-restart")
	}
}
