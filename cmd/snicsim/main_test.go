package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snic/internal/device"
)

// update regenerates the committed tables:
//
//	go test ./cmd/snicsim -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestRunMatchesGolden pins the snicsim table for small NF mixes on
// every registered device model, plus the zero-instruction edge where
// every IPC is 0 and S-NIC's degradation must read 0.00%.
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		nfs    string
		models []string
		instr  uint64
	}{
		{"fw-dpi", "FW,DPI", device.Models(), 20000},
		{"nat-lb-lpm-mon", "NAT,LB,LPM,Mon", device.Models(), 20000},
		{"instr0", "FW,DPI", []string{"snic", "agilio"}, 0},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, strings.Split(tc.nfs, ","), tc.models, 4<<20, tc.instr, 1); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run `go test ./cmd/snicsim -update`): %v", path, err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%s drifted from golden.\n--- want\n%s\n--- got\n%s", tc.golden, want, got)
			}
		})
	}
}

// TestRunRejectsUnknownModel keeps the model-name error path.
func TestRunRejectsUnknownModel(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"FW"}, []string{"bogus"}, 4<<20, 1000, 1); err == nil {
		t.Fatal("run accepted an unknown device model")
	}
}
