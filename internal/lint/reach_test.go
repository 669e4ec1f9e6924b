package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// stdlibCallbacks are method names the standard library calls through
// its own interfaces (fmt.Stringer, error, http.Handler, sort.Interface,
// json.Marshaler). The module call graph has no edge into them because
// the caller has no analyzed body, so they count as entry points.
var stdlibCallbacks = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "MarshalJSON": true,
}

// reasonForm matches the two reasons an unreached function may be listed
// with: the ROADMAP item that will wire it in or delete it, or the test
// of another package that needs it as an oracle. A function that only
// its own package's tests call is not listed: such a test reads the
// unexported state itself, or the function moves into a _test.go file.
var reasonForm = regexp.MustCompile(`^(item [0-9]+: |cross-package oracle: .+ checks ).+`)

// shipped is the module as its programs see it: every package, the call
// graph, and the nodes a walk from the shipped programs reaches.
type shipped struct {
	pkgs    []*Package
	graph   *Graph
	reached map[*Node]bool
}

var (
	moduleOnce    sync.Once
	moduleShipped *shipped
	moduleErr     error
)

// loadModule loads the real module once for both reach tests.
func loadModule(t *testing.T) *shipped {
	t.Helper()
	root := moduleRoot(t)
	moduleOnce.Do(func() {
		loader := NewLoader("snic", root)
		pkgs, err := loader.LoadPatterns(nil)
		if err != nil {
			moduleErr = err
			return
		}
		moduleShipped = reachShipped(loader.Fset, pkgs)
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return moduleShipped
}

// reachShipped walks the call graph of pkgs from the programs the module
// ships: main of every cmd/, examples/ and bench package, plus the
// entry nodes (initializers and standard-library callbacks) of every
// package those programs import.
func reachShipped(fset *token.FileSet, pkgs []*Package) *shipped {
	g := (&Program{Fset: fset, Pkgs: pkgs}).Graph()
	var roots []*Node
	imported := make(map[string]bool)
	var importAll func(p *types.Package)
	importAll = func(p *types.Package) {
		if imported[p.Path()] {
			return
		}
		imported[p.Path()] = true
		for _, q := range p.Imports() {
			importAll(q)
		}
	}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, "snic/")
		if p.Types == nil || p.Types.Name() != "main" {
			continue
		}
		if strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || rel == "bench" {
			importAll(p.Types)
			roots = append(roots, g.byFn[mainFunc(p.Types)])
		}
	}
	for _, n := range g.Nodes {
		if n.Pkg != nil && imported[n.Pkg.Path] && entry(n) {
			roots = append(roots, n)
		}
	}
	return &shipped{pkgs: pkgs, graph: g, reached: g.Reachable(roots)}
}

// TestEveryFunctionIsReached fails on a declared function that no walk
// from the shipped programs reaches, unless testdata/unreached.txt lists
// it with a reason of reasonForm. The test fails both on an unlisted
// unreached function and on a listed one that is now reached or gone, so
// the list only ever describes the tree.
func TestEveryFunctionIsReached(t *testing.T) {
	s := loadModule(t)
	var got []string
	for _, n := range s.graph.Nodes {
		if n.Decl == nil || s.reached[n] || entry(n) || n.Fn.Name() == "_" {
			continue
		}
		got = append(got, qualifiedName(n))
	}
	checkList(t, filepath.Join("testdata", "unreached.txt"), reasonForm, got,
		"is reached by no cmd/, examples/ or bench program: call it from one, delete it, or list it with a reason in")
}

// checkList compares the findings got with the "name  reason" lines of
// the list at path: it fails on a malformed or duplicate line, on a
// finding the list does not name, and on a listed name that is no
// longer a finding.
func checkList(t *testing.T, path string, form *regexp.Regexp, got []string, unlisted string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listed, bad := parseList(string(data), form)
	for _, msg := range bad {
		t.Errorf("%s:%s", path, msg)
	}
	for _, name := range got {
		if !listed[name] {
			t.Errorf("%s %s %s", name, unlisted, path)
		}
		delete(listed, name)
	}
	var stale []string
	for name := range listed {
		stale = append(stale, name)
	}
	slices.Sort(stale)
	for _, name := range stale {
		t.Errorf("%s lists %s, which is no longer a finding: drop the line", path, name)
	}
}

// parseList reads "name  reason" lines into the set of listed names, and
// describes each line whose reason does not match form and each
// duplicate.
func parseList(data string, form *regexp.Regexp) (map[string]bool, []string) {
	listed := make(map[string]bool)
	var bad []string
	for i, line := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
		name, reason, ok := strings.Cut(line, "  ")
		if !ok || !form.MatchString(reason) {
			bad = append(bad, fmt.Sprintf("%d: want \"name  reason\" with a reason matching %s, got %q", i+1, form, line))
			continue
		}
		if listed[name] {
			bad = append(bad, fmt.Sprintf("%d: %s listed twice", i+1, name))
		}
		listed[name] = true
	}
	return listed, bad
}

// TestUnreachedReasonForms pins the two accepted reason forms: a
// function that only its own package's tests call has no place on the
// list.
func TestUnreachedReasonForms(t *testing.T) {
	for _, c := range []struct {
		line string
		ok   bool
	}{
		{"internal/x.F  item 7: the upload path", true},
		{"internal/x.F  cross-package oracle: y's TestZ checks an invariant", true},
		{"internal/x.F  test oracle: x", false},
		{"internal/x.F  items 8 and 9: the harnesses", false},
		{"internal/x.F  cross-package oracle: y's TestZ", false},
		{"internal/x.F  item 7:", false},
		{"internal/x.F  test seam: y's TestZ injects a fake", false},
		{"internal/x.F", false},
	} {
		if _, bad := parseList(c.line+"\n", reasonForm); (len(bad) == 0) != c.ok {
			t.Errorf("%q: accepted %v, want %v (%v)", c.line, len(bad) == 0, c.ok, bad)
		}
	}
}

// entry reports whether a module node runs without a module caller: a
// package-variable initializer, an init function, or a method the
// standard library calls.
func entry(n *Node) bool {
	switch {
	case n.Fn == nil:
		return true
	case n.Decl.Recv == nil:
		return n.Fn.Name() == "init"
	default:
		return stdlibCallbacks[n.Fn.Name()]
	}
}

// mainFunc returns the main function declared in a main package.
func mainFunc(p *types.Package) *types.Func {
	fn, _ := p.Scope().Lookup("main").(*types.Func)
	return fn
}

// qualifiedName renders n with its module-relative package path, e.g.
// "internal/mem.Physical.OwnerOf", so that functions of two packages
// with the same last path element (every main) stay distinct.
func qualifiedName(n *Node) string {
	name := n.Name
	if i := strings.Index(name, "."); i >= 0 {
		name = name[i:]
	}
	return strings.TrimPrefix(n.Pkg.Path, "snic/") + name
}

// moduleRoot returns the directory holding the module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}
