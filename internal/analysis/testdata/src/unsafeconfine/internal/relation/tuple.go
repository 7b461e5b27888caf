package relation

import (
	"sync"
	u "unsafe" // want `import of unsafe outside internal/relation/value\.go and region\.go`
)

var mu sync.Mutex

const wordSize = u.Sizeof(uintptr(0))
