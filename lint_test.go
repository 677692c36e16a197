package t2hx

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllow lists the export lint's findings that the module keeps, each
// with its one-line reason. A key is a package path relative to the module
// root, alone (every finding in that package) or followed by ".Name" or
// ".Type.Member".
var exportAllow = map[string]string{
	"internal/packet":                      "imported only by its own tests until the packet model is cross-checked against the flow model or deleted (ROADMAP)",
	"internal/route.AssignLayers":          "internal/packet's credit-deadlock test layers its paths with it",
	"internal/route.Tables.LIDFor":         "the core and packet tests address a terminal's PARX LIDs with it",
	"internal/topo.NewKaryNTree":           "the route engine tests build small k-ary n-trees with it",
	"internal/exp.MachineConfig.Planes":    "hxbench/machines.go reads it; the field goes once hxbench stops reading it (ROADMAP)",
	"internal/exp.ScaleSpec.Instrumented":  "BenchmarkScaleInstrumented sets it until that run moves into hxbench (ROADMAP)",
	"internal/fabric.Params.NodeBandwidth": "the whole-run rescaling relation (ROADMAP) must scale the node cap with every other rate",
	"internal/faults.Sweep.Margin":         "always 0 now, but hxbench/faults.go hashes it into the fault_resweep digest",
}

// TestExportsHaveProductionCallers fails on every exported identifier of
// internal/ that no non-test file of the module, its commands, examples
// or hxbench references, and on every exported field they read but never
// set, unless exportAllow names it; and on every stale exportAllow entry.
func TestExportsHaveProductionCallers(t *testing.T) {
	findings, err := lintExports(".", "github.com/hpcsim/t2hx")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(findings, exportAllow) {
		t.Error(p)
	}
}

// TestExportLintFixture runs the lint on a fixture module whose findings
// are known: an unreferenced func, a field only read, a method that no
// interface it satisfies excuses, and a name referenced only from a file
// the build constraints exclude. A String method that satisfies
// fmt.Stringer is not a finding, and stale allowlist entries fail.
func TestExportLintFixture(t *testing.T) {
	findings, err := lintExports(filepath.Join("testdata", "exportlint"), "example.com/lintfixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.name+": "+f.why)
	}
	want := []string{
		"internal/lib.Config.Threshold: " + whyNeverSet,
		"internal/lib.ID.Len: " + whyUnreferenced,
		"internal/lib.Tagged: " + whyUnreferenced,
		"internal/lib.Unused: " + whyUnreferenced,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	allow := map[string]string{
		"internal/lib.Config.Threshold": "kept",
		"internal/lib.ID.Len":           "kept",
		"internal/lib.Tagged":           "kept",
		"internal/lib.Unused":           "kept",
	}
	if p := checkAllowlist(findings, allow); len(p) != 0 {
		t.Errorf("a complete allowlist reported %q", p)
	}
	allow["internal/lib.Used"] = "referenced from cmd/tool"
	allow["internal/lib.Gone"] = "declared nowhere"
	delete(allow, "internal/lib.Unused")
	p := checkAllowlist(findings, allow)
	if len(p) != 3 || !strings.Contains(p[0], "internal/lib.Gone is stale") ||
		!strings.Contains(p[1], "internal/lib.Used is stale") || !strings.Contains(p[2], "internal/lib.Unused") {
		t.Errorf("checkAllowlist = %q, want the two stale entries and the unlisted Unused", p)
	}
	if p := checkAllowlist(nil, map[string]string{"internal/lib": "two\nlines"}); len(p) != 2 {
		t.Errorf("a stale entry with a two-line reason gave %q, want two problems", p)
	}
}

const (
	whyUnreferenced = "exported, but no non-test code references it"
	whyNeverSet     = "read, but no non-test code sets it"
)

// exportFinding is one exported name of internal/ the lint reports. name is
// its package path relative to the module root, then ".Name" or
// ".Type.Member".
type exportFinding struct {
	name, pos, why string
}

// lintRoots are the module directories whose non-test files count as
// callers. Declarations are checked under internal/ only.
var lintRoots = []string{"internal", "cmd", "examples", "hxbench"}

// lintExports type-checks the non-test files of the module at root, whose
// path is module, as the default build context selects them, and reports
// in name order every exported func, method, type, const, var or field
// declared under internal/ that no file references, and every exported
// field the files read but never set. A method counts as referenced when
// its type satisfies an interface, of the module or of the standard
// library it imports, that has a method of that name.
func lintExports(root, module string) ([]exportFinding, error) {
	l := &exportLinter{
		root: root, module: module,
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, dir := range lintRoots {
		if err := l.parseTree(filepath.Join(root, dir)); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.files))
	for path := range l.files {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}

	// go/types records each selection's Sel in Uses too.
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[origin(obj)] = true
	}
	set := l.setFields()
	ifaces := l.interfacesByMethod()

	var out []exportFinding
	report := func(obj types.Object, name, why string) {
		pos := l.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		out = append(out, exportFinding{name: name, pos: pos.String(), why: why})
	}
	for _, path := range paths {
		rel := strings.TrimPrefix(path, module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, rel+"."+name, whyUnreferenced)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, ifaces[m.Name()]) {
					report(m, rel+"."+name+"."+m.Name(), whyUnreferenced)
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case !f.Exported() || f.Embedded():
				case !used[f] && !set[f]:
					report(f, rel+"."+name+"."+f.Name(), whyUnreferenced)
				case !set[f]:
					report(f, rel+"."+name+"."+f.Name(), whyNeverSet)
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b exportFinding) int { return strings.Compare(a.name, b.name) })
	return out, nil
}

// checkAllowlist returns, sorted, one problem for each finding allow does
// not cover, each allow entry that covers no finding, and each entry whose
// reason is not one line.
func checkAllowlist(findings []exportFinding, allow map[string]string) []string {
	var problems []string
	hit := map[string]bool{}
	for _, f := range findings {
		pkg, _, _ := strings.Cut(f.name, ".")
		switch {
		case allow[f.name] != "":
			hit[f.name] = true
		case allow[pkg] != "":
			hit[pkg] = true
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is %s: delete it, move it into its package's export_test.go, or allowlist it with a reason", f.pos, f.name, f.why))
		}
	}
	for key, reason := range allow {
		if !hit[key] {
			problems = append(problems, fmt.Sprintf("allowlist entry %s is stale: no finding matches it", key))
		}
		if reason == "" || strings.Contains(reason, "\n") {
			problems = append(problems, fmt.Sprintf("allowlist entry %s needs a one-line reason", key))
		}
	}
	slices.Sort(problems)
	return problems
}

type exportLinter struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	files        map[string][]*ast.File // by import path
	pkgs         map[string]*types.Package
	info         *types.Info
}

// parseTree parses every non-test Go file under dir that the default build
// context selects, skipping testdata and hidden directories. A missing dir
// is no error.
func (l *exportLinter) parseTree(dir string) error {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(l.root, filepath.Dir(path))
		if err != nil {
			return err
		}
		imp := l.module + "/" + filepath.ToSlash(rel)
		l.files[imp] = append(l.files[imp], f)
		return nil
	})
}

// Import type-checks a module package from its parsed files, recording
// into the shared Info, and hands any other path to the source importer.
func (l *exportLinter) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *exportLinter) load(path string) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	files := l.files[path]
	if len(files) == 0 {
		return nil, fmt.Errorf("package %s: no non-test Go files", path)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// setFields returns every field the parsed files set: by a keyed or
// positional composite literal, an assignment or op-assignment, ++ or --,
// or by taking its address.
func (l *exportLinter) setFields() map[types.Object]bool {
	set := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			set[origin(s.Obj())] = true
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.CompositeLit:
					t := l.info.Types[n].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem() // an element literal with &T elided
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[origin(l.info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							set[origin(st.Field(i))] = true
						}
					}
				}
				return true
			})
		}
	}
	return set
}

// interfacesByMethod indexes by method name every non-generic interface
// the module declares, named or literal, every one declared at package
// level in the packages it imports, directly or not, and error.
func (l *exportLinter) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	walked := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if walked[p] {
			return
		}
		walked[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					add(named)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			add(it)
		}
	}
	return byName
}

// satisfies reports whether named or a pointer to it implements one of
// ifaces. A generic type satisfies none.
func satisfies(named *types.Named, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// origin maps a method or field of a generic instance to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
