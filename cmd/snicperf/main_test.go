package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snicperf runs the command in-process on stdin and returns its exit
// status, stdout and stderr.
func snicperf(stdin io.Reader, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, stdin, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func readText(t *testing.T, path string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// recordBoth records the canned baseline and post `go test -bench` texts
// into one new BENCH file and returns its path.
func recordBoth(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_T.json")
	for _, step := range []struct{ input, section, pr, want string }{
		{"baseline.txt", "baseline", "7", "recorded 3 benchmarks into " + path + ` section "baseline"`},
		{"post.txt", "", "0", "recorded 3 benchmarks into " + path + ` section "post"`},
	} {
		in := strings.NewReader(readText(t, filepath.Join("testdata", step.input)))
		args := []string{"-record", "-o", path, "-pr", step.pr}
		if step.section != "" {
			args = append(args, "-section", step.section)
		}
		code, out, errOut := snicperf(in, args...)
		if code != 0 || out != "" || errOut != "snicperf: "+step.want+"\n" {
			t.Fatalf("record %s: exit %d, stdout %q, stderr %q", step.input, code, out, errOut)
		}
	}
	return path
}

// TestRecord pins the BENCH file that two -record runs build: the first
// creates it with a named section and the PR stamp, the second adds the
// default "post" section and keeps the stamp.
func TestRecord(t *testing.T) {
	path := recordBoth(t)
	if got, want := readText(t, path), readText(t, filepath.Join("testdata", "recorded.json")); got != want {
		t.Errorf("recorded file drifted from testdata/recorded.json.\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestDiffThreshold: one benchmark in the canned pair slowed by 15%, so
// the single-file diff exits 1 at the default 10% threshold, in both
// formats, and 0 at 20%.
func TestDiffThreshold(t *testing.T) {
	path := recordBoth(t)
	for _, tc := range []struct {
		args   []string
		code   int
		golden string
	}{
		{[]string{path}, 1, "diff.txt"},
		{[]string{"-format", "json", path}, 1, "diff.json"},
	} {
		code, out, errOut := snicperf(nil, tc.args...)
		if code != tc.code || errOut != "" {
			t.Errorf("%v: exit %d, stderr %q; want %d", tc.args, code, errOut, tc.code)
		}
		if want := readText(t, filepath.Join("testdata", tc.golden)); out != want {
			t.Errorf("%v drifted from testdata/%s.\n--- want\n%s--- got\n%s", tc.args, tc.golden, want, out)
		}
	}
	code, out, _ := snicperf(nil, "-threshold", "20", path)
	if code != 0 || strings.Contains(out, "regressed") || strings.Contains(out, "!") {
		t.Errorf("-threshold 20: exit %d with a regression marked:\n%s", code, out)
	}
}

// TestDiffCommittedFiles diffs the committed BENCH files: two PRs' post
// sections, and one file's baseline against its post at a threshold
// below its 0.7% slowdown.
func TestDiffCommittedFiles(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		golden string
	}{
		{[]string{"../../BENCH_9.json", "../../BENCH_10.json"}, 0, "bench9-10.txt"},
		{[]string{"-threshold", "0.5", "../../BENCH_8.json"}, 1, "bench8-threshold.txt"},
	} {
		code, out, errOut := snicperf(nil, tc.args...)
		if code != tc.code || errOut != "" {
			t.Errorf("%v: exit %d, stderr %q; want %d", tc.args, code, errOut, tc.code)
		}
		if want := readText(t, filepath.Join("testdata", tc.golden)); out != want {
			t.Errorf("%v drifted from testdata/%s.\n--- want\n%s--- got\n%s", tc.args, tc.golden, want, out)
		}
	}
}

// TestUsageErrors: wrong arity, a missing file or section, an unknown
// format and unparsable input all exit 2 with a message on stderr.
func TestUsageErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	for _, tc := range []struct {
		stdin string
		args  []string
	}{
		{"", nil},
		{"", []string{"a.json", "b.json", "c.json"}},
		{"", []string{"-record", "-o", out, "extra"}},
		{"no benchmarks here\n", []string{"-record", "-o", out}},
		{"", []string{"missing.json"}},
		{"", []string{"-section", "nope", "../../BENCH_10.json", "../../BENCH_9.json"}},
		{"", []string{"-format", "xml", "../../BENCH_8.json"}},
		{"", []string{"-bogus"}},
	} {
		code, stdout, stderr := snicperf(strings.NewReader(tc.stdin), tc.args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message", tc.args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a failed -record left %s behind (stat: %v)", out, err)
	}
}
