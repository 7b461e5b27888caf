//go:build race

// Package race reports whether the race detector is compiled in. Tests that
// put a ceiling on allocations skip under it: the detector makes sync.Pool
// drop a share of what is put back, so pooled scratch is reallocated at
// random and the counts stop being a property of the code.
package race

// Enabled is true in a -race build.
const Enabled = true
