//go:build !simcheck

package sim

// Checking reports whether the simcheck runtime invariant layer is
// compiled in. This is the production build: every check below
// compiles to nothing and inlines away.
const Checking = false

// Assert is a no-op unless built with -tags simcheck.
func Assert(bool, string, ...any) {}
