package scenarios

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsStateScenarioCount keeps the scenario count that README.md and
// EXPERIMENTS.md quote in step with the numbered directories here.
func TestDocsStateScenarioCount(t *testing.T) {
	dirs, err := filepath.Glob("[0-9][0-9]-*")
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
		"ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen", "eighteen",
		"nineteen", "twenty"}
	if len(dirs) >= len(words) {
		t.Fatalf("%d scenarios: extend the number words", len(dirs))
	}
	want := words[len(dirs)]
	root := filepath.Join("..", "..", "..")
	for _, doc := range []struct {
		file string
		re   *regexp.Regexp
	}{
		{"README.md", regexp.MustCompile(`(\w+) numbered end-to-end scenarios`)},
		{"README.md", regexp.MustCompile(`replay scenarios 01\.\.(\d+) against`)},
		{"EXPERIMENTS.md", regexp.MustCompile(`(\w+) numbered scenarios under`)},
	} {
		text, err := os.ReadFile(filepath.Join(root, doc.file))
		if err != nil {
			t.Fatal(err)
		}
		prose := strings.Join(strings.Fields(string(text)), " ")
		m := doc.re.FindStringSubmatch(prose)
		if m == nil {
			t.Errorf("%s no longer matches %q", doc.file, doc.re)
			continue
		}
		if got := strings.ToLower(m[1]); got != want && got != strconv.Itoa(len(dirs)) {
			t.Errorf("%s says %q, but internal/fleet/scenarios holds %d scenarios", doc.file, m[0], len(dirs))
		}
	}
}
