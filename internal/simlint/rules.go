package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// wallclockFuncs are the time-package entry points that observe the
// host clock or host timers. time.Duration arithmetic and the Duration
// constants stay legal: holding a duration is fine, sampling the wall
// clock inside simulated state is not.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// outputFuncs are the entry points of fmt and log that print to
// process-global destinations (stdout, stderr, the default logger).
// Writer-explicit variants (fmt.Fprintf, log.New(...).Printf) stay
// legal: output that names its destination is reviewable; output that
// grabs a global stream from library code is not.
var outputFuncs = map[string]map[string]bool{
	"fmt": {
		"Print":   true,
		"Printf":  true,
		"Println": true,
	},
	"log": {
		"Print":   true,
		"Printf":  true,
		"Println": true,
		"Fatal":   true,
		"Fatalf":  true,
		"Fatalln": true,
		"Panic":   true,
		"Panicf":  true,
		"Panicln": true,
		"Output":  true,
	},
}

// hotPathFunc reports whether a function name is one of the per-cycle
// hot paths under the zero-alloc steady-state contract: the router
// pipeline phases and the per-flit helpers they call (the NI's packet
// selection among them), the per-cycle Step/Tick entry points, the
// router's per-router step, the shard partition's per-cycle
// pass, per-router wake scheduling and merge, and the
// full-system gated sweep (per-tile tick, sleep and wake sites, and the
// simcheck recount that must stay alloc-free when it passes), and the
// calendar queue's per-message Schedule (with its insert) and PopUntil.
func hotPathFunc(name string) bool {
	if strings.HasPrefix(name, "phase") {
		return true
	}
	switch name {
	case "Step", "Tick", "stepRouter",
		"pushFlit", "popFlit", "saNominate", "tryInject", "selectNext", "bestVC",
		"stepSharded", "shardStep", "rearm", "wakeOut",
		"tick", "sleepTile", "wakeTile", "checkSleepers",
		"Schedule", "insert", "PopUntil":
		return true
	}
	return false
}

// lintFile applies every local (single-file) rule to one file. det
// selects the full determinism contract, inInternal adds the output
// rule; otherwise only wallclock applies.
func lintFile(m *Module, p *Package, f *ast.File, det, inInternal bool) []Finding {
	var out []Finding
	report := func(n ast.Node, rule, msg string) {
		m.report(&out, n, rule, msg)
	}

	// Track the local names of the time, fmt, and log imports (they may
	// be renamed) and flag math/rand imports outright.
	timeName := ""
	outputPkgs := map[string]string{} // local name -> canonical "fmt"/"log"
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch path {
		case "time":
			timeName = local
		case "fmt", "log":
			outputPkgs[local] = path
		case "math/rand", "math/rand/v2":
			report(imp, RuleWallclock,
				path+" is banned: use a seeded sim.NewRNG stream keyed by component identity")
		}
	}

	typeOf := func(e ast.Expr) types.Type {
		if p.info == nil {
			return nil
		}
		if tv, ok := p.info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}

	if det {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotPathFunc(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// id.Obj == nil keeps locals that shadow the builtins out.
				if id, ok := call.Fun.(*ast.Ident); ok && id.Obj == nil &&
					(id.Name == "make" || id.Name == "append") {
					report(call, RuleAlloc, fmt.Sprintf(
						"%s in per-cycle hot path %s can allocate in steady state; refill a preallocated scratch buffer and annotate the capacity argument",
						id.Name, fd.Name.Name))
				}
				return true
			})
		}
	}

	lintAssertArgs(m, p, f, report)

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName &&
				wallclockFuncs[n.Sel.Name] {
				report(n, RuleWallclock, fmt.Sprintf(
					"%s.%s leaks wall-clock time; simulated state must advance only in sim.Cycle units",
					timeName, n.Sel.Name))
			}
		case *ast.GoStmt:
			if det {
				report(n, RuleConcurrency,
					"goroutine spawn in a deterministic package; introduce parallelism behind a tested engine")
			}
		case *ast.SendStmt:
			if det {
				report(n, RuleConcurrency, "channel send in a deterministic package")
			}
		case *ast.UnaryExpr:
			if det && n.Op == token.ARROW {
				report(n, RuleConcurrency, "channel receive in a deterministic package")
			}
		case *ast.SelectStmt:
			if det {
				report(n, RuleConcurrency, "select statement in a deterministic package")
			}
		case *ast.CallExpr:
			if det {
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					report(n, RuleConcurrency, "channel close in a deterministic package")
				}
			}
			if inInternal {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					// id.Obj == nil distinguishes a package reference from
					// a local identifier that shadows the import name.
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
						if pkg, ok := outputPkgs[id.Name]; ok && outputFuncs[pkg][sel.Sel.Name] {
							report(n, RuleOutput, fmt.Sprintf(
								"%s.%s prints to a process-global stream from simulator internals; route runtime output through internal/obs or take an explicit io.Writer",
								pkg, sel.Sel.Name))
						}
					}
				}
			}
		case *ast.RangeStmt:
			if !det {
				return true
			}
			t := typeOf(n.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n, RuleMapRange,
					"range over a map iterates in nondeterministic order; sort the keys first or annotate why order cannot matter")
			case *types.Chan:
				report(n, RuleConcurrency, "range over a channel in a deterministic package")
			}
		}
		return true
	})
	return out
}

// lintAssertArgs applies the assertarg rule to one file: a call inside
// a sim.Assert argument runs in production builds too, where Assert is
// an empty function but its arguments are still evaluated — a Name()
// that formats a string costs every caller of the hot path it sits
// in. Builtins and conversions are free and stay legal; so does any
// call the simcheck build alone reaches, which the rule recognises in
// the two shapes the tree uses: the body of `if sim.Checking [&& ...]`
// and a function that opens with `if !sim.Checking { return }`.
func lintAssertArgs(m *Module, p *Package, f *ast.File, report func(ast.Node, string, string)) {
	simName := ""
	for local, path := range m.imports[f] {
		if path == "sim" || strings.HasSuffix(path, "/sim") {
			simName = local
		}
	}
	if simName == "" || p.info == nil {
		return
	}
	isSim := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == simName && id.Obj == nil
	}
	// checking reports whether cond holds only in simcheck builds.
	var checking func(cond ast.Expr) bool
	checking = func(cond ast.Expr) bool {
		switch c := cond.(type) {
		case *ast.ParenExpr:
			return checking(c.X)
		case *ast.BinaryExpr:
			return c.Op == token.LAND && (checking(c.X) || checking(c.Y))
		}
		return isSim(cond, "Checking")
	}
	type span struct{ from, to token.Pos }
	var guarded []span
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if checking(n.Cond) {
				guarded = append(guarded, span{n.Body.Pos(), n.Body.End()})
			}
		case *ast.BlockStmt:
			// `if !sim.Checking { return }` guards the rest of its block.
			for _, st := range n.List {
				ifs, ok := st.(*ast.IfStmt)
				if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 {
					continue
				}
				not, ok := ifs.Cond.(*ast.UnaryExpr)
				if !ok || not.Op != token.NOT || !isSim(not.X, "Checking") {
					continue
				}
				if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); ok {
					guarded = append(guarded, span{ifs.End(), n.End()})
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSim(call.Fun, "Assert") {
			return true
		}
		for _, g := range guarded {
			if g.from <= call.Pos() && call.Pos() < g.to {
				return true
			}
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				inner, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if tv, ok := p.info.Types[inner.Fun]; ok && !tv.IsBuiltin() && !tv.IsType() {
					report(inner, RuleAssertArg, fmt.Sprintf(
						"call inside a %s.Assert argument is evaluated in production builds, where Assert is a no-op; wrap the assertion in `if %s.Checking`",
						simName, simName))
				}
				return true
			})
		}
		return true
	})
}
