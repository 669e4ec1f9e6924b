package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"snic/internal/obs"
)

// snicbench runs the command in-process and returns its exit status,
// stdout and stderr.
func snicbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun is snicbench for a run that has to succeed.
func mustRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	code, out, errOut := snicbench(t, args...)
	if code != 0 {
		t.Fatalf("snicbench %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out, errOut
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestTraceAndMetricsAreRiders pins observability as a pure rider:
// attaching -trace and -metrics never changes the fig6 table, and both
// exports are byte-identical at 1 and 16 workers.
func TestTraceAndMetricsAreRiders(t *testing.T) {
	dir := t.TempDir()
	plain, _ := mustRun(t, "-experiment", "fig6", "-scale", "small")
	var traces, dumps []string
	for _, w := range []string{"1", "16"} {
		path := filepath.Join(dir, "w"+w+".trace")
		out, dump := mustRun(t, "-experiment", "fig6", "-scale", "small", "-workers", w,
			"-trace", path, "-metrics")
		if out != plain {
			t.Errorf("-workers %s -trace -metrics changed the fig6 table:\n%s\nwant:\n%s", w, out, plain)
		}
		if !strings.HasPrefix(dump, "# snic-metrics v1\n") {
			t.Fatalf("-workers %s: stderr is not a metric dump:\n%s", w, dump)
		}
		traces = append(traces, readFile(t, path))
		dumps = append(dumps, dump)
	}
	if traces[0] != traces[1] {
		t.Error("fig6 trace differs between -workers 1 and 16")
	}
	if dumps[0] != dumps[1] {
		t.Error("fig6 metric dump differs between -workers 1 and 16")
	}
}

// TestBoundedTraceIsRider pins the flight recorder: -trace-cap 4 must
// truncate fig6's tracks without perturbing the table, and the bounded
// trace stays byte-identical at 1 and 16 workers.
func TestBoundedTraceIsRider(t *testing.T) {
	dir := t.TempDir()
	plain, _ := mustRun(t, "-experiment", "fig6", "-scale", "small")
	var traces []string
	for _, w := range []string{"1", "16"} {
		path := filepath.Join(dir, "w"+w+".trace")
		out, _ := mustRun(t, "-experiment", "fig6", "-scale", "small", "-workers", w,
			"-trace-cap", "4", "-trace", path)
		if out != plain {
			t.Errorf("-workers %s -trace-cap 4 changed the fig6 table", w)
		}
		traces = append(traces, readFile(t, path))
	}
	if !strings.Contains(traces[0], `"dropped_spans"`) {
		t.Error("-trace-cap 4 dropped no span: the cap never bit")
	}
	if traces[0] != traces[1] {
		t.Error("bounded fig6 trace differs between -workers 1 and 16")
	}
}

// TestCPUProfileIsRider pins -cpuprofile as a pure rider: it writes a
// non-empty profile and leaves stdout byte-identical.
func TestCPUProfileIsRider(t *testing.T) {
	plain, _ := mustRun(t, "-experiment", "table6", "-scale", "small")
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	out, _ := mustRun(t, "-experiment", "table6", "-scale", "small", "-cpuprofile", path)
	if out != plain {
		t.Errorf("-cpuprofile changed the table6 output:\n%s\nwant:\n%s", out, plain)
	}
	if readFile(t, path) == "" {
		t.Error("-cpuprofile wrote an empty profile")
	}
}

// TestFig5DevWorkerInvariance runs the shared co-tenancy simulator
// across every device model: fig5dev's table must not move with
// -metrics or -workers, nor its metric dump with -workers.
func TestFig5DevWorkerInvariance(t *testing.T) {
	plain, _ := mustRun(t, "-experiment", "fig5dev", "-scale", "small")
	var dumps []string
	for _, w := range []string{"1", "16"} {
		out, dump := mustRun(t, "-experiment", "fig5dev", "-scale", "small", "-workers", w, "-metrics")
		if out != plain {
			t.Errorf("-workers %s -metrics changed the fig5dev table:\n%s\nwant:\n%s", w, out, plain)
		}
		dumps = append(dumps, dump)
	}
	if dumps[0] != dumps[1] {
		t.Error("fig5dev metric dump differs between -workers 1 and 16")
	}
}

// TestReplayResumesByteIdentically interrupts the streaming replay
// mid-sweep (-stop-after is the deterministic "kill": every shard parks
// its cursor and the run exits 3), resumes from the checkpoint file
// alone, and byte-compares against an uninterrupted run. Any shard
// state that fails to round-trip through a cursor breaks it.
func TestReplayResumesByteIdentically(t *testing.T) {
	want, _ := mustRun(t, "-experiment", "replay", "-scale", "small")
	ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
	code, _, errOut := snicbench(t, "-experiment", "replay", "-scale", "small",
		"-checkpoint", ckpt, "-stop-after", "2000")
	if code != 3 {
		t.Fatalf("interrupted replay exited %d, want 3\n%s", code, errOut)
	}
	if st, err := os.Stat(ckpt); err != nil || st.Size() == 0 {
		t.Fatalf("interrupted replay left no checkpoint: %v", err)
	}
	got, _ := mustRun(t, "-experiment", "replay", "-scale", "small", "-checkpoint", ckpt)
	if got != want {
		t.Errorf("resumed replay differs from an uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
}

// TestUsageErrors pins exit 2, with nothing run, for every bad
// invocation.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-experiment", "table2", "-scale", "bogus"}, `unknown -scale "bogus" (valid: small, medium, full)`},
		{[]string{"-experiment", "table2", "-format", "bogus"}, "bogus"},
		{[]string{"-experiment", "table2", "-metrics", "-metrics-format", "bogus"}, `unknown -metrics-format "bogus"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		code, out, errOut := snicbench(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if out != "" {
			t.Errorf("%v: an experiment ran:\n%s", tc.args, out)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, errOut, tc.want)
		}
	}
}

// TestList pins -list: every experiment name, sorted, one per line.
func TestList(t *testing.T) {
	out, _ := mustRun(t, "-list")
	names := strings.Fields(out)
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list is not sorted: %v", names)
	}
	if !reflect.DeepEqual(names, experimentNames()) {
		t.Errorf("-list = %v, want %v", names, experimentNames())
	}
}

// TestPromMetricsValidate checks that -metrics-format prom emits an
// exposition the in-repo Prometheus validator accepts.
func TestPromMetricsValidate(t *testing.T) {
	_, prom := mustRun(t, "-experiment", "fig6", "-scale", "small", "-metrics", "-metrics-format", "prom")
	if prom == "" {
		t.Fatal("empty exposition")
	}
	if err := obs.ValidateExposition(strings.NewReader(prom)); err != nil {
		t.Errorf("exposition invalid: %v\n%s", err, prom)
	}
}

// TestEveryExperimentHasGolden keeps each experiment pinned by a golden
// rendering in internal/exp, so no experiment's output can change
// unnoticed.
func TestEveryExperimentHasGolden(t *testing.T) {
	for _, name := range experimentNames() {
		path := filepath.Join("..", "..", "internal", "exp", "testdata", "golden", name+".txt")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("experiment %s has no golden: %v", name, err)
		}
	}
}
