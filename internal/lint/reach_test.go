package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
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

// TestEveryFunctionIsReached walks the call graph from the programs the
// module ships: main of every cmd/, examples/ and bench package, plus
// the initializers of every package those programs import. A declared
// function that no walk reaches is dead unless testdata/unreached.txt
// lists it with a reason of reasonForm. The test fails both on an
// unlisted unreached function and on a listed one that is now reached or
// gone, so the list only ever describes the tree.
func TestEveryFunctionIsReached(t *testing.T) {
	root := moduleRoot(t)
	loader := NewLoader("snic", root)
	pkgs, err := loader.LoadPatterns(nil)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	got := unreached(pkgs, (&Program{Fset: loader.Fset, Pkgs: pkgs}).Graph())

	listPath := filepath.Join("testdata", "unreached.txt")
	data, err := os.ReadFile(listPath)
	if err != nil {
		t.Fatal(err)
	}
	listed, bad := parseUnreached(string(data))
	for _, msg := range bad {
		t.Errorf("%s:%s", listPath, msg)
	}
	for _, name := range got {
		if !listed[name] {
			t.Errorf("%s is reached by no cmd/, examples/ or bench program: call it from one, delete it, or list it in %s with a reason", name, listPath)
		}
		delete(listed, name)
	}
	var stale []string
	for name := range listed {
		stale = append(stale, name)
	}
	slices.Sort(stale)
	for _, name := range stale {
		t.Errorf("%s lists %s, which is now reached or gone: drop the line", listPath, name)
	}
}

// parseUnreached reads the "name  reason" lines of unreached.txt into the
// set of listed names, and describes each malformed or duplicate line.
func parseUnreached(data string) (map[string]bool, []string) {
	listed := make(map[string]bool)
	var bad []string
	for i, line := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
		name, reason, ok := strings.Cut(line, "  ")
		if !ok || !reasonForm.MatchString(reason) {
			bad = append(bad, fmt.Sprintf("%d: want %q or %q, got %q", i+1,
				"name  item N: ...", "name  cross-package oracle: <test> checks <invariant>", line))
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
		{"internal/x.F", false},
	} {
		if _, bad := parseUnreached(c.line + "\n"); (len(bad) == 0) != c.ok {
			t.Errorf("%q: accepted %v, want %v (%v)", c.line, len(bad) == 0, c.ok, bad)
		}
	}
}

// unreached returns the sorted names of the module functions that no
// walk from the shipped programs reaches.
func unreached(pkgs []*Package, g *Graph) []string {
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
			if n := g.byFn[mainFunc(p.Types)]; n != nil {
				roots = append(roots, n)
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Pkg != nil && imported[n.Pkg.Path] && entry(n) {
			roots = append(roots, n)
		}
	}
	seen := make(map[*Node]bool)
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Out {
			roots = append(roots, e.To)
		}
	}
	var dead []string
	for _, n := range g.Nodes {
		if n.Decl == nil || seen[n] || entry(n) || n.Fn.Name() == "_" {
			continue
		}
		dead = append(dead, qualifiedName(n))
	}
	slices.Sort(dead)
	return dead
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
