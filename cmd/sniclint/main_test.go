package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixtures is the lint package's fixture tree: one package per check
// built to violate it, plus stubs of the module packages they call.
const lintFixtures = "../../internal/lint/testdata"

// fixtureModule copies the fixture tree into a fresh module named snic
// under a temporary directory and returns that directory. sniclint finds
// its module root by walking up to go.mod, so the fixtures need their
// own.
func fixtureModule(t *testing.T) string {
	t.Helper()
	src := filepath.Join(lintFixtures, "src")
	root := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module snic\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// sniclint runs the command in-process from dir and returns its exit
// status, stdout and stderr.
func sniclint(dir string, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, dir, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestFixtureTreeFindings runs every check over the whole fixture module:
// exit 1, the text rendering is the lint package's golden with paths
// relative to the module root, and stderr counts the findings.
func TestFixtureTreeFindings(t *testing.T) {
	root := fixtureModule(t)
	code, out, errOut := sniclint(root, "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errOut)
	}
	want := strings.ReplaceAll(readFile(t, filepath.Join(lintFixtures, "golden.txt")), "testdata/src/", "")
	if out != want {
		t.Errorf("findings drifted from the lint golden.\n--- want\n%s--- got\n%s", want, out)
	}
	if n := strings.Count(want, "\n"); errOut != fmt.Sprintf("sniclint: %d finding(s)\n", n) {
		t.Errorf("stderr = %q, want a count of %d findings", errOut, n)
	}
}

// TestMachineFormats pins the JSON and SARIF renderings of one check on
// its fixture package. Neither format prints the count on stderr.
func TestMachineFormats(t *testing.T) {
	root := fixtureModule(t)
	for format, golden := range map[string]string{
		"json":  "mapfix.json",
		"sarif": "mapfix.sarif",
	} {
		code, out, errOut := sniclint(root, "-format", format, "-checks", "map-order", "./internal/mapfix")
		if code != 1 || errOut != "" {
			t.Errorf("-format %s: exit %d, stderr %q; want 1 and nothing", format, code, errOut)
		}
		if want := readFile(t, filepath.Join("testdata", golden)); out != want {
			t.Errorf("-format %s drifted from testdata/%s.\n--- want\n%s--- got\n%s", format, golden, want, out)
		}
	}
}

// TestCleanPackageExitsZero: a package no selected check fires on exits
// 0 with no output.
func TestCleanPackageExitsZero(t *testing.T) {
	root := fixtureModule(t)
	code, out, errOut := sniclint(root, "-checks", "map-order", "./internal/sim")
	if code != 0 || out != "" || errOut != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and nothing", code, out, errOut)
	}
}

// TestList pins the check IDs and their one-line docs.
func TestList(t *testing.T) {
	code, out, _ := sniclint(".", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if want := readFile(t, filepath.Join("testdata", "list.txt")); out != want {
		t.Errorf("-list drifted from testdata/list.txt.\n--- want\n%s--- got\n%s", want, out)
	}
}

// TestUsageErrors: a bad flag, format, check, package or start
// directory exits 2 with a message and no findings on stdout.
func TestUsageErrors(t *testing.T) {
	root := fixtureModule(t)
	for _, tc := range []struct {
		dir  string
		args []string
	}{
		{root, []string{"-format", "xml", "./..."}},
		{root, []string{"-json", "./..."}},
		{root, []string{"-checks", "nonsense", "./..."}},
		{root, []string{"./internal/nowhere"}},
		{t.TempDir(), []string{"./..."}}, // no go.mod above it
	} {
		code, out, errOut := sniclint(tc.dir, tc.args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message", tc.args, code, out, errOut)
		}
	}
}
