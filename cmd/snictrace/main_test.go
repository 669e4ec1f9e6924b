package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snic/internal/device"
	"snic/internal/sim"
	"snic/internal/trace"
)

// snictrace runs the command in-process and returns its exit status,
// stdout and stderr.
func snictrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRecordReplayMatchesGolden records a small seeded trace and replays
// it, twice each: both reports are byte-identical across runs and match
// the committed transcript. The transcript shows no passes: rule 49 of
// the fixed replay rule set matches every frame and drops it.
func TestRecordReplayMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "roundtrip.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	var traces []string
	for i := 0; i < 2; i++ {
		code, rec, errOut := snictrace("-record", path, "-flows", "100", "-packets", "500", "-seed", "1")
		if code != 0 {
			t.Fatalf("record: exit %d\n%s", code, errOut)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, string(buf))
		code, rep, errOut := snictrace("-replay", path)
		if code != 0 {
			t.Fatalf("replay: exit %d\n%s", code, errOut)
		}
		got := strings.ReplaceAll(rec, dir+string(os.PathSeparator), "") + rep
		if got != string(want) {
			t.Errorf("run %d drifted from testdata/roundtrip.txt.\n--- want\n%s--- got\n%s", i, want, got)
		}
	}
	if traces[0] != traces[1] {
		t.Error("the same seed recorded two different trace files")
	}
}

// TestUsageErrors: no mode, an empty flow pool or a non-positive packet
// count exit 2 before any file is written.
func TestUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	for _, args := range [][]string{
		nil,
		{"-record", path, "-flows", "0", "-packets", "10"},
		{"-record", path, "-packets", "-5"},
		{"-record", path, "-packets", "0"},
		{"-bogus"},
	} {
		code, out, errOut := snictrace(args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message", args, code, out, errOut)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a rejected -record wrote %s (stat: %v)", path, err)
	}
}

// TestReplayErrors: an unreadable or corrupt trace exits 1.
func TestReplayErrors(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(corrupt, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(t.TempDir(), "missing.bin"), corrupt} {
		if code, _, errOut := snictrace("-replay", path); code != 1 || errOut == "" {
			t.Errorf("-replay %s: exit %d, stderr %q; want 1 with a message", path, code, errOut)
		}
	}
}

// lossyNIC drops every second frame between the ring and the reader.
type lossyNIC struct {
	device.NIC
	calls int
}

func (l *lossyNIC) Retrieve(id device.FuncID) ([]byte, error) {
	l.calls++
	raw, err := l.NIC.Retrieve(id)
	if err == nil && l.calls%2 == 0 {
		return nil, errors.New("lost")
	}
	return raw, err
}

// TestReplayCountsRetrieveFailures: a frame the firewall never receives
// counts as an error, so delivered plus errors covers every frame.
func TestReplayCountsRetrieveFailures(t *testing.T) {
	dev, err := device.New(device.Spec{Model: "snic", Cores: 4, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	frames := trace.NewICTF(sim.NewRand(1), 10).Frames(6)
	var out bytes.Buffer
	if err := replayFrames(&out, &lossyNIC{NIC: dev}, frames); err != nil {
		t.Fatal(err)
	}
	if got := strings.SplitN(out.String(), "\n", 2)[0]; !strings.HasPrefix(got, "replayed 6 frames: 3 delivered, ") ||
		!strings.HasSuffix(got, ", 3 errors") {
		t.Errorf("report = %q, want 3 delivered and 3 errors", got)
	}
}
