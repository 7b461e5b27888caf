// Package relation is the unsafeconfine fixture: its directory ends in
// internal/relation, so value.go and region.go are the two files that may import unsafe.
package relation

import "unsafe"

type value struct {
	p unsafe.Pointer
	n int64
}

func str(s string) value { return value{p: unsafe.Pointer(unsafe.StringData(s)), n: int64(len(s))} }
