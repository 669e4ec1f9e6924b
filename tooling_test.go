package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// background matches a shell `&` that puts a command in the background:
// one not part of `&&`, a `>&`/`&>` redirection or a `|&` pipe, and
// followed by the end of the line or by whitespace.
var background = regexp.MustCompile(`(^|[^&>|<])&($|\s)`)

// TestBackgroundPattern pins what the guard below treats as starting a
// background process.
func TestBackgroundPattern(t *testing.T) {
	for line, want := range map[string]bool{
		"snicd -listen 127.0.0.1:18080 &":          true,
		"/tmp/snicd -seed 7 & sleep 0.4":           true,
		"go run ./cmd/snicd &   ":                  true,
		"(cd bench && $(GO) test .)":               false,
		"go test ./... > out.txt 2>&1":             false,
		"snicbench -metrics &> all.txt":            false,
		"make fleet || exit 1":                     false,
		"Tables & figures live in EXPERIMENTS.md.": true,
	} {
		if got := background.MatchString(line); got != want {
			t.Errorf("%q: background = %v, want %v", line, got, want)
		}
	}
}

// TestNoBackgroundedProcesses keeps every command in CI, the Makefile
// and the verify skill in the foreground: a recipe that backgrounds a
// daemon can leave it running after the command that started it exits.
func TestNoBackgroundedProcesses(t *testing.T) {
	for _, path := range []string{
		".github/workflows/ci.yml",
		"Makefile",
		".claude/skills/verify/SKILL.md",
	} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			if background.MatchString(line) {
				t.Errorf("%s:%d puts a process in the background: %s", path, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestEveryBinaryHasATest keeps every command and example a tested
// run() seam: a main package under cmd/ or examples/ without a _test.go
// file protects no result, and either gets a test or goes.
func TestEveryBinaryHasATest(t *testing.T) {
	var dirs []string
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(parent, e.Name()))
			}
		}
	}
	if len(dirs) == 0 {
		t.Fatal("found no cmd/ or examples/ packages")
	}
	for _, dir := range dirs {
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			t.Errorf("%s has no _test.go: drive its run() from a test, or delete it", dir)
		}
	}
}

// binaryPath matches a cmd/<x> or examples/<x> path written in prose or
// a command line, not one nested inside a longer path.
var binaryPath = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|examples)/[\w-]+)`)

// TestDocumentedBinariesExist fails when a document names a command or
// example that is not in the tree, so deleting or renaming one has to
// update the docs in the same change.
func TestDocumentedBinariesExist(t *testing.T) {
	for _, path := range []string{
		"README.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md",
	} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range binaryPath.FindAllStringSubmatch(line, -1) {
				if info, err := os.Stat(m[1]); err != nil || !info.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory", path, i+1, m[1])
				}
			}
		}
	}
}

// internalPath matches an internal/... path in prose: a package
// (internal/trace), a file (internal/trace/rules.go), or a package
// followed by an identifier (internal/exp.Runner.Figure5a).
var internalPath = regexp.MustCompile(`(?:^|[^\w/.-])(internal(?:/[\w.-]+)+)`)

// TestDocsNameExistingPackages fails when README, DESIGN or EXPERIMENTS
// names an internal/... package or file that is not in the tree, so
// deleting a package cannot leave its description behind.
func TestDocsNameExistingPackages(t *testing.T) {
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range internalPath.FindAllStringSubmatch(line, -1) {
				name := strings.TrimRight(m[1], ".")
				if _, err := os.Stat(name); err == nil {
					continue
				}
				// internal/exp.Runner.Figure5a names the package internal/exp.
				pkg, _, ok := strings.Cut(name, ".")
				if info, err := os.Stat(pkg); ok && err == nil && info.IsDir() {
					continue
				}
				t.Errorf("%s:%d names %s, which is not in the tree", path, i+1, name)
			}
		}
	}
}
