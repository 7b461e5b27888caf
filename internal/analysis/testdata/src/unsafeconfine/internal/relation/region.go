package relation

import "unsafe"

// region.go is the second file that may import unsafe (positive fixture):
// it stores addresses as integers in a block the collector does not scan.
type region struct{ words []uint64 }

func (r *region) ref(i int) { r.words[i] = uint64(uintptr(unsafe.Pointer(&r.words[0]))) }
