//go:build !race

package mdfs

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
