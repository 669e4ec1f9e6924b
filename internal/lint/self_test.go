package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestModuleIsClean runs the full check registry against the real
// module and asserts zero unwaived diagnostics. This is the invariant
// gate itself, exercised by `go test ./...`, so the build stays honest
// even where CI configuration drifts: a refactor that reintroduces
// wall-clock reads, map-ordered output, factory bypasses, literal
// seeds, or an external import fails the ordinary test run.
func TestModuleIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("snic", root)
	pkgs, err := loader.LoadPatterns(nil) // ./...
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded only %d packages; discovery is broken", len(pkgs))
	}
	diags := Run(loader.Fset, pkgs, Registry())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d unwaived finding(s); fix them or add //lint:allow <check> <reason> at the site", len(diags))
	}

	// The waiver budget: suppressions in production code are debt, and
	// the interprocedural checks exist to shrink it, not grow it. Every
	// waiver that survives here is also known-used (the stale-waiver
	// detector above would have flagged it otherwise).
	known := make(map[string]bool)
	for _, c := range Registry() {
		known[c.Name()] = true
	}
	production := 0
	for _, p := range pkgs {
		ws, _ := parseWaivers(loader.Fset, p, known)
		for _, w := range ws {
			if !w.test {
				production++
				t.Logf("production waiver: %s [%s]", w.pos, w.check)
			}
		}
	}
	const waiverBudget = 9
	if production >= waiverBudget {
		t.Errorf("%d production waivers, budget is < %d: fix violations instead of waiving them", production, waiverBudget)
	}

	// DESIGN.md quotes both numbers; keep the prose from drifting.
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	prose := strings.Join(strings.Fields(string(design)), " ")
	m := regexp.MustCompile(`\(currently (\d+), budget < (\d+)\)`).FindStringSubmatch(prose)
	if m == nil {
		t.Fatal(`DESIGN.md no longer states the waiver count as "(currently N, budget < M)"`)
	}
	if m[1] != strconv.Itoa(production) || m[2] != strconv.Itoa(waiverBudget) {
		t.Errorf("DESIGN.md says %q production waivers with budget < %q; the module has %d, budget < %d",
			m[1], m[2], production, waiverBudget)
	}
}

// TestDesignTrustedPackages pins DESIGN.md's isolation-boundary row to
// isolationTrusted: the prose names exactly the packages the check
// exempts, so a package added to (or dropped from) the trusted device
// layer cannot leave the documented boundary behind.
func TestDesignTrustedPackages(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "| `isolation-boundary` |") {
			row = line
		}
	}
	m := regexp.MustCompile(`trusted device layer \(([^)]*)\)`).FindStringSubmatch(row)
	if m == nil {
		t.Fatal("DESIGN.md's isolation-boundary row no longer lists the trusted device layer in parentheses")
	}
	var documented []string
	for _, pm := range regexp.MustCompile("`(internal/[a-z]+)`").FindAllStringSubmatch(m[1], -1) {
		documented = append(documented, "snic/"+pm[1])
	}
	var trusted []string
	for p := range isolationTrusted {
		trusted = append(trusted, p)
	}
	slices.Sort(documented)
	slices.Sort(trusted)
	if !slices.Equal(documented, trusted) {
		t.Errorf("DESIGN.md lists trusted packages %v; isolationTrusted has %v", documented, trusted)
	}
}
