package simlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Module is the phase-one product: every package in the module parsed
// and type-checked exactly once, plus the module-wide directive table
// and (built lazily by index) the function/method index shared by the
// whole-module rules. Phase-two rules only read from it.
type Module struct {
	fset   *token.FileSet
	root   string // absolute module root
	path   string // module import path
	pkgs   map[string]*Package
	sorted []string // package paths in deterministic order
	dirs   *directiveSet

	funcList []*funcRef               // every declared func/method, stable order
	funcs    map[*types.Func]*funcRef // the same, by type object
	imports  map[*ast.File]map[string]string
}

// Package is one parsed and type-checked module package.
type Package struct {
	path  string
	dir   string
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// funcRef locates one function or method declaration together with the
// package and file context needed to resolve names inside its body.
type funcRef struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	file *ast.File
}

// load runs phase one: parse the whole module, type-check every
// package, and collect directives.
func load(rootArg string) (*Module, error) {
	root, err := filepath.Abs(rootArg)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.stdImp = importer.ForCompiler(l.fset, "source", nil)
	if err := l.walk(); err != nil {
		return nil, err
	}
	m := &Module{
		fset: l.fset,
		root: root,
		path: modPath,
		pkgs: l.pkgs,
	}
	for p := range m.pkgs {
		m.sorted = append(m.sorted, p)
	}
	sort.Strings(m.sorted)
	// Type-check everything up front: the local rules classify range
	// targets, and the whole-module rules resolve receivers and call
	// targets from the same shared types.Info.
	for _, p := range m.sorted {
		l.typeCheck(p)
	}
	m.collectDirectives()
	m.index()
	return m, nil
}

// relPos converts a token.Pos to a Position whose Filename is
// module-root-relative and slash-separated — the stable spelling used
// in findings and directive lookups.
func (m *Module) relPos(pos token.Pos) token.Position {
	p := m.fset.Position(pos)
	if rel, err := filepath.Rel(m.root, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		p.Filename = filepath.ToSlash(rel)
	}
	return p
}

// index builds the module-wide function table: every FuncDecl with a
// resolved *types.Func, in deterministic (package, file, decl) order,
// plus the per-file import maps used for syntactic sink detection.
func (m *Module) index() {
	m.funcs = map[*types.Func]*funcRef{}
	m.imports = map[*ast.File]map[string]string{}
	for _, path := range m.sorted {
		p := m.pkgs[path]
		for _, f := range p.files {
			imps := map[string]string{}
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				local := ipath[strings.LastIndex(ipath, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imps[local] = ipath
			}
			m.imports[f] = imps
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				ref := &funcRef{fn: fn, decl: fd, pkg: p, file: f}
				m.funcList = append(m.funcList, ref)
				if fn != nil {
					m.funcs[fn] = ref
				}
			}
		}
	}
}

// report appends a finding at node n unless an allow directive covers
// it.
func (m *Module) report(out *[]Finding, n ast.Node, rule, msg string) {
	pos := m.relPos(n.Pos())
	if m.dirs.allowed(rule, pos) {
		return
	}
	*out = append(*out, Finding{Pos: pos, Rule: rule, Msg: msg})
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("simlint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("simlint: no module line in %s", gomod)
}

// loader parses every package in the module and type-checks them.
// Module-local imports are resolved from source; standard library
// imports go through the source importer so the analyzer works offline
// with nothing but the toolchain.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	pkgs    map[string]*Package
	stdImp  types.Importer
	loading map[string]bool
}

// walk parses every non-test .go file in the module, grouped by
// directory. testdata, vendor, and hidden directories are skipped.
func (l *loader) walk() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("simlint: parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		imp := l.modPath
		if rel != "." {
			imp = l.modPath + "/" + filepath.ToSlash(rel)
		}
		p := l.pkgs[imp]
		if p == nil {
			p = &Package{path: imp, dir: dir}
			l.pkgs[imp] = p
		}
		p.files = append(p.files, f)
		return nil
	})
}

// typeCheck type-checks a module package (once), resolving module
// imports recursively. Type errors are tolerated: rules fall back to
// syntax-only behaviour where type information is missing, which can
// hide a finding but never invents one.
func (l *loader) typeCheck(path string) *Package {
	p := l.pkgs[path]
	if p == nil || p.tpkg != nil || l.loading[path] {
		return p
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(error) {}, // best effort; see above
	}
	p.tpkg, _ = conf.Check(path, l.fset, p.files, p.info)
	return p
}

// Import implements types.Importer over module-local source plus the
// standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if p := l.typeCheck(path); p != nil && p.tpkg != nil {
			return p.tpkg, nil
		}
		return nil, fmt.Errorf("simlint: cannot load module package %s", path)
	}
	pkg, err := l.stdImp.Import(path)
	if err != nil {
		// Offline environment without GOROOT sources: degrade to an
		// empty placeholder so local type-checking can continue.
		name := path[strings.LastIndex(path, "/")+1:]
		pkg = types.NewPackage(path, name)
		pkg.MarkComplete()
	}
	return pkg, nil
}
