package relation

import "unsafe" // want `import of unsafe outside internal/relation/value\.go and region\.go`

// Test files get no exemption: a test could forge a value the invariants
// forbid and "prove" a bug that cannot occur.
var forged = value{p: unsafe.Pointer(new(byte)), n: 99}
