package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadImportCycle pins the loader's cycle behavior: an import cycle
// inside the module must not hang or crash the loader. The cycle guard
// turns the re-entrant Load into an importer error, the type checker
// treats it as an ordinary type error, and both packages still come
// back parsed and type-checked — the build, not the linter, is the gate
// that rejects cyclic programs.
func TestLoadImportCycle(t *testing.T) {
	loader := NewLoader("cyclemod", filepath.Join("testdata", "loader"))
	a, err := loader.Load("cyclemod/a")
	if err != nil {
		t.Fatalf("Load(cyclemod/a) = %v; cycles must degrade to type errors, not load failures", err)
	}
	b, err := loader.Load("cyclemod/b")
	if err != nil {
		t.Fatalf("Load(cyclemod/b) = %v", err)
	}
	// The import that closes the cycle (b's of a) is the one refused:
	// a's call of b.Pong resolves, b's call of a.Ping resolves to nothing.
	if fn := firstCallee(a); fn == nil || fn.Name() != "Pong" {
		t.Errorf("a's call resolves to %v, want b.Pong", fn)
	}
	if fn := firstCallee(b); fn != nil {
		t.Errorf("b's call resolves to %v through the refused import", fn)
	}
	// The packages must still be usable for syntactic checks.
	if len(a.Files) == 0 || len(b.Files) == 0 {
		t.Errorf("cycle members lost their parsed files: a=%d b=%d", len(a.Files), len(b.Files))
	}
}

// firstCallee resolves the first call in pkg's first file.
func firstCallee(pkg *Package) *types.Func {
	var call *ast.CallExpr
	ast.Inspect(pkg.Files[0].AST, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && call == nil {
			call = c
		}
		return call == nil
	})
	if call == nil {
		return nil
	}
	return calleeOf(pkg.TypesInfo, call.Fun)
}

// TestLoadParseError asserts a syntactically broken file fails the Load
// of its package with an error naming the file, and leaves every other
// package loadable through the same loader. The fixture is written at
// runtime: a committed .go file with a syntax error would trip the
// repository-wide gofmt gate.
func TestLoadParseError(t *testing.T) {
	root := t.TempDir()
	good := filepath.Join(root, "ok")
	bad := filepath.Join(root, "broken")
	for _, d := range []string{good, bad} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(good, "ok.go"),
		[]byte("package ok\n\nfunc Fine() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "broken.go"),
		[]byte("package broken\n\nfunc Oops( { return\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	loader := NewLoader("tmpmod", root)
	if _, err := loader.Load("tmpmod/broken"); err == nil {
		t.Fatal("Load(tmpmod/broken) succeeded on a syntax error")
	} else if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("parse error does not name the file: %v", err)
	}
	if _, err := loader.Load("tmpmod/ok"); err != nil {
		t.Errorf("healthy sibling package failed to load after the parse error: %v", err)
	}
}

// TestChainedRootShadowing pins the root-chaining contract the fixture
// tests depend on: when two roots provide the same import path, the
// first root wins, and paths absent from the first root fall through to
// the later ones.
func TestChainedRootShadowing(t *testing.T) {
	first := t.TempDir()
	second := t.TempDir()
	write := func(root, dir, src string) {
		t.Helper()
		full := filepath.Join(root, dir)
		if err := os.MkdirAll(full, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(full, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(first, "shadow", "package shadow\n\nconst From = \"first\"\n")
	write(second, "shadow", "package shadow\n\nconst From = \"second\"\n")
	write(second, "extra", "package extra\n\nconst Here = true\n")

	loader := NewLoader("m", first, second)
	sh, err := loader.Load("m/shadow")
	if err != nil {
		t.Fatalf("Load(m/shadow) = %v", err)
	}
	if !strings.HasPrefix(sh.Dir, first) {
		t.Errorf("m/shadow resolved to %s; the first root must shadow later ones", sh.Dir)
	}
	ft, err := loader.Load("m/extra")
	if err != nil {
		t.Fatalf("Load(m/extra) = %v; missing paths must fall through to later roots", err)
	}
	if !strings.HasPrefix(ft.Dir, second) {
		t.Errorf("m/extra resolved to %s, want a directory under the second root", ft.Dir)
	}
	// Outside-the-module and missing paths are loud, not silent.
	if _, err := loader.Load("other/pkg"); err == nil {
		t.Error("Load(other/pkg) succeeded outside the module")
	}
	if _, err := loader.Load("m/nowhere"); err == nil {
		t.Error("Load(m/nowhere) succeeded for a path no root provides")
	}
}
