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
//	go test ./examples/constellation -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestRunMatchesGolden pins the Figure 4b walkthrough: mutual
// attestation across two vendors, the AEAD channel, and the rejection
// of both a tampered datagram and a counterfeit middlebox. The
// transcript is byte-identical on every run.
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
		t.Fatalf("missing golden %s (run `go test ./examples/constellation -update`): %v", path, err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("constellation drifted from golden.\n--- want\n%s\n--- got\n%s", want, got)
	}
}
