package bench

import (
	"os"
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
