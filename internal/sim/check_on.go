//go:build simcheck

package sim

import "fmt"

// Checking reports whether the simcheck runtime invariant layer is
// compiled in (`go test -tags simcheck ./...`). Production builds
// compile the no-op twin in check_off.go.
const Checking = true

// Assert panics with a formatted message when cond is false. It is the
// runtime half of the determinism contract: cheap enough to leave at
// co-sim quantum boundaries, free when simcheck is off.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		panic("sim: invariant violated: " + fmt.Sprintf(format, args...))
	}
}
