package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the committed transcript:
//
//	go test ./examples/quickstart -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestRunMatchesGolden pins the §4 walkthrough: NF_create's launch
// costs, attestation, the firewall's verdict and cache counts, and
// NF_destroy's scrub cost. Every number is simulated, so the transcript
// is byte-identical on every run.
func TestRunMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./examples/quickstart -update`): %v", path, err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("quickstart drifted from golden.\n--- want\n%s\n--- got\n%s", want, got)
	}
}
