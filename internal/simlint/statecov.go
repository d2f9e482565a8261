package simlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// statecov is the snapshot-coverage rule: a type describes its state
// to the checkpoint codec in methods whose first parameter is a
// *snapshot.Codec — exported or not, whatever their name — and each
// struct field of such a type must be referenced in that description:
// directly, through sibling methods called on the receiver, or through
// package-level helpers the receiver is passed to. A field that is
// recomputed instead carries a //simlint:derived annotation on its
// declaration. One body walks both directions, so there is no pair to
// cross-check: a field is either in the description or it is not.
//
// The codec parameter is recognised syntactically, through the file's
// imports; receivers and call targets are resolved through go/types, so
// the rule never confuses fields with locals and follows helpers across
// files. Where type information is missing (tolerated type errors), a
// method body yields no references and the absence is reported — the
// rule can over-report on broken code but never silently under-covers.

func statecov(m *Module) []Finding {
	// The describing methods by receiver base type, in declaration order.
	bodies := map[*types.TypeName][]*funcRef{}
	var order []*types.TypeName
	for _, fr := range m.funcList {
		if fr.decl.Recv == nil || !takesCodec(m, fr) {
			continue
		}
		tn := receiverTypeName(fr)
		if tn == nil {
			continue
		}
		if bodies[tn] == nil {
			order = append(order, tn)
		}
		bodies[tn] = append(bodies[tn], fr)
	}

	var out []Finding
	for _, tn := range order {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		refs := fieldRefs(m, bodies[tn])
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == "_" || refs[field.Name()] {
				continue
			}
			pos := m.relPos(field.Pos())
			if m.dirs.derivedAt(pos) || m.dirs.allowed(RuleStatecov, pos) {
				continue
			}
			out = append(out, Finding{Pos: pos, Rule: RuleStatecov, Msg: fmt.Sprintf(
				"field %s.%s is not referenced by the type's state description (%s); walk it or annotate //simlint:derived <how it is recomputed>",
				tn.Name(), field.Name(), bodies[tn][0].decl.Name.Name)})
		}
	}
	return out
}

// takesCodec reports whether the function's first parameter is a
// *snapshot.Codec: a pointer to the type Codec of an imported package
// whose path ends in "snapshot".
func takesCodec(m *Module, fr *funcRef) bool {
	params := fr.decl.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	star, ok := params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Codec" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	path := m.imports[fr.file][pkg.Name]
	return path == "snapshot" || strings.HasSuffix(path, "/snapshot")
}

// receiverTypeName resolves a method's receiver to the defining
// *types.TypeName (pointers stripped), or nil when type information is
// unavailable.
func receiverTypeName(fr *funcRef) *types.TypeName {
	recv := fr.decl.Recv
	if recv == nil || len(recv.List) == 0 {
		return nil
	}
	var t types.Type
	if tv, ok := fr.pkg.info.Types[recv.List[0].Type]; ok {
		t = tv.Type
	} else if len(recv.List[0].Names) > 0 {
		if obj := fr.pkg.info.Defs[recv.List[0].Names[0]]; obj != nil {
			t = obj.Type()
		}
	}
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// fieldRefs returns the set of receiver field names referenced by the
// methods, following sibling helper methods and package-level helper
// functions the receiver is passed to.
func fieldRefs(m *Module, methods []*funcRef) map[string]bool {
	w := &covWalker{
		m:       m,
		refs:    map[string]bool{},
		visited: map[*ast.FuncDecl]bool{},
	}
	for _, fr := range methods {
		if selfs := receiverObjs(fr); len(selfs) > 0 {
			w.walk(fr, selfs)
		}
	}
	return w.refs
}

// receiverObjs returns the set holding the method's receiver object
// (empty for an unnamed receiver, which cannot reference fields).
func receiverObjs(fr *funcRef) map[types.Object]bool {
	recv := fr.decl.Recv
	if recv == nil || len(recv.List) == 0 || len(recv.List[0].Names) == 0 {
		return nil
	}
	obj := fr.pkg.info.Defs[recv.List[0].Names[0]]
	if obj == nil {
		return nil
	}
	return map[types.Object]bool{obj: true}
}

// covWalker accumulates field references across the helper-call
// closure of one type's describing methods.
type covWalker struct {
	m       *Module
	refs    map[string]bool
	visited map[*ast.FuncDecl]bool
}

func (w *covWalker) walk(fr *funcRef, self map[types.Object]bool) {
	if fr.decl.Body == nil || w.visited[fr.decl] {
		return
	}
	w.visited[fr.decl] = true
	info := fr.pkg.info
	ast.Inspect(fr.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// recv.field (or recv.method — method names cannot collide
			// with field names, so recording both is harmless).
			if id, ok := n.X.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && self[obj] {
					w.refs[n.Sel.Name] = true
				}
			}
		case *ast.CallExpr:
			w.call(fr, n, self)
		}
		return true
	})
}

// call follows one call expression into helpers that can see the
// receiver: methods invoked on the receiver itself, and any declared
// function the receiver is passed to as an argument.
func (w *covWalker) call(fr *funcRef, call *ast.CallExpr, self map[types.Object]bool) {
	info := fr.pkg.info

	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
		if callee != nil {
			// A generic type's method, called on its own receiver, is an
			// instantiation; the declaration is its origin.
			callee = callee.Origin()
		}
		// A method called on the receiver: every field the helper
		// touches counts for the calling method.
		if id, ok := fun.X.(*ast.Ident); ok && callee != nil {
			if obj := info.Uses[id]; obj != nil && self[obj] {
				if ref := w.m.funcs[callee]; ref != nil {
					w.walk(ref, receiverObjs(ref))
				}
				return
			}
		}
	default:
		return
	}
	if callee == nil {
		return
	}
	ref := w.m.funcs[callee]
	if ref == nil || ref.decl.Type.Params == nil {
		return
	}
	// The receiver passed as an argument: track it through the
	// callee's corresponding parameter.
	params := flattenParams(ref)
	newSelf := map[types.Object]bool{}
	for i, arg := range call.Args {
		if u, ok := arg.(*ast.UnaryExpr); ok {
			arg = u.X
		}
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := info.Uses[id]; obj == nil || !self[obj] {
			continue
		}
		if i < len(params) && params[i] != nil {
			newSelf[params[i]] = true
		}
	}
	if len(newSelf) > 0 {
		w.walk(ref, newSelf)
	}
}

// flattenParams returns the callee's parameter objects in positional
// order (nil for unnamed parameters).
func flattenParams(fr *funcRef) []types.Object {
	var out []types.Object
	for _, field := range fr.decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, fr.pkg.info.Defs[name])
		}
	}
	return out
}
