// Package sim is the fixture's stand-in for the simulation kernel's
// invariant layer: the assertarg rule keys on a package named sim with
// an Assert function and a Checking constant.
package sim

// Checking is false in the fixture's "production" build.
const Checking = false

// Assert is the production no-op; its arguments are still evaluated.
func Assert(bool, string, ...any) {}
