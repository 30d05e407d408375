//go:build race

package mdfs

// raceEnabled reports that this binary was built with -race, whose
// instrumentation adds allocations the ceilings of
// TestLoadImageFsckAllocations do not budget for.
const raceEnabled = true
