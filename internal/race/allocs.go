package race

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// AllocsPerRun is testing.AllocsPerRun with the collector paused. The
// reading counts every malloc in the window, the runtime's own included, so
// a collection that happens to run inside it (more likely on a loaded
// machine) adds allocations the code under test never made. One collection
// first settles what earlier work left behind; the caller's GC percentage
// is restored after.
func AllocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
