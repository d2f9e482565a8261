// Assertarg fixtures: a call inside a sim.Assert argument runs in
// production builds unless a sim.Checking guard encloses it. Line
// numbers are asserted by internal/simlint's tests; keep edits appended
// or update the tests.
package det

import "fixture/sim"

type backend struct{ id int }

func (b backend) Name() string { return "backend" }

// BadAssertArgs formats a name on every call in every build; the
// nested call fires too.
func BadAssertArgs(b backend, at, end int64) {
	sim.Assert(at <= end, "%s delivered at %d past %d", b.Name(), at, end)
	sim.Assert(at >= 0, "%s", wrap(b.Name()))
}

// FreeAssertArgs uses only builtins and conversions, which cost nothing.
func FreeAssertArgs(xs []int, at int64) {
	sim.Assert(len(xs) > 0, "empty after %d (%d)", uint64(at), cap(xs))
}

// GuardedAssertArgs shows both guard shapes the rule recognises, and
// that the else branch of a guard is not covered by it.
func GuardedAssertArgs(b backend, at int64) {
	if sim.Checking {
		sim.Assert(at >= 0, "%s", b.Name())
	}
	if at > 0 && sim.Checking {
		sim.Assert(at >= 0, "%s", b.Name())
	} else {
		sim.Assert(at >= 0, "%s", b.Name())
	}
	//simlint:allow assertarg fixture: cold path, the cost is accepted
	sim.Assert(at >= 0, "%s", b.Name())
}

// checkedOnly opens with the early-return guard.
func checkedOnly(b backend, at int64) {
	if !sim.Checking {
		return
	}
	sim.Assert(at >= 0, "%s", b.Name())
}

func wrap(s string) string { return "[" + s + "]" }
