package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snic/internal/obs"
)

// snicstat runs the command in-process on the given stdin and returns
// its exit status, stdout and stderr.
func snicstat(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// registry builds a small registry: one counter at rx and one
// histogram fed the given latencies.
func registry(rx uint64, lat ...uint64) *obs.Registry {
	r := obs.NewRegistry()
	r.Counter(obs.Label{Device: "nic-a", Owner: "acme", Component: "pktio", Name: "rx"}).Add(rx)
	h := r.Histogram(obs.Label{Device: "nic-a", Owner: "acme", Component: "pktio", Name: "latency"})
	for _, v := range lat {
		h.Observe(v)
	}
	return r
}

// writeDump writes text to a file under t.TempDir and returns its path.
func writeDump(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffIdentical pins the success verdict of a diff of two equal
// dumps: exit 0 and the series count.
func TestDiffIdentical(t *testing.T) {
	text := registry(5, 3, 100).DumpMetrics()
	series, err := obs.ParseDump(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := snicstat(t, "", writeDump(t, "a", text), writeDump(t, "b", text))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	if want := fmt.Sprintf("identical: %d series\n", len(series)); out != want {
		t.Errorf("stdout %q, want %q", out, want)
	}
}

// TestDiffChanged pins exit 1 and the changed-series summary.
func TestDiffChanged(t *testing.T) {
	code, out, _ := snicstat(t, "",
		writeDump(t, "a", registry(5).DumpMetrics()),
		writeDump(t, "b", registry(6).DumpMetrics()))
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "rx") || !strings.Contains(out, "1 of ") {
		t.Errorf("diff does not report the one changed series:\n%s", out)
	}
}

// TestDiffUsageErrors pins exit 2 for a malformed dump and a missing
// operand.
func TestDiffUsageErrors(t *testing.T) {
	good := writeDump(t, "a", registry(5).DumpMetrics())
	bad := writeDump(t, "bad", "# snic-metrics v1\ncounter only three fields\n")
	for _, args := range [][]string{{good, bad}, {bad, good}, {good}} {
		if code, _, _ := snicstat(t, "", args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestPromCheckStdin validates expositions read from stdin.
func TestPromCheckStdin(t *testing.T) {
	code, out, errOut := snicstat(t, registry(5, 7).PromText(), "-promcheck", "-")
	if code != 0 || out != "exposition ok\n" {
		t.Errorf("valid exposition: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, _, errOut = snicstat(t, "snic_rx_total{device=\"nic-a\" 5\n", "-promcheck", "-")
	if code != 1 || !strings.Contains(errOut, "exposition invalid") {
		t.Errorf("invalid exposition: exit %d, stderr %q; want exit 1", code, errOut)
	}
}

// TestHist summarizes the histogram of a dump.
func TestHist(t *testing.T) {
	code, out, errOut := snicstat(t, "", "-hist", writeDump(t, "a", registry(5, 1, 2, 1000).DumpMetrics()))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	for _, want := range []string{"p50", "p99", "latency", "percentiles interpolated"} {
		if !strings.Contains(out, want) {
			t.Errorf("-hist output lacks %q:\n%s", want, out)
		}
	}
	code, out, _ = snicstat(t, "", "-hist", writeDump(t, "b", "# snic-metrics v1\n"))
	if code != 0 || out != "no histograms in dump\n" {
		t.Errorf("empty dump: exit %d, stdout %q", code, out)
	}
}

// TestWatch polls a stand-in daemon twice: one line per poll, the
// second reporting the series that changed between them.
func TestWatch(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/metrics":
			io.WriteString(w, registry(uint64(polls.Add(1))).DumpMetrics())
		case "/v1/progress":
			json.NewEncoder(w).Encode(obs.ProgressSnapshot{Experiment: "burst", JobsTotal: 4, JobsDone: 4})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	code, out, errOut := snicstat(t, "", "-watch", srv.URL+"/", "-n", "2", "-interval", "300ms")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 poll lines, got:\n%s", out)
	}
	if strings.Contains(lines[0], "changed") || !strings.HasSuffix(lines[1], "| 1 series changed") {
		t.Errorf("churn column wrong:\n%s", out)
	}

	srv.Close()
	if code, _, _ := snicstat(t, "", "-watch", srv.URL, "-n", "1"); code != 1 {
		t.Errorf("unreachable daemon: exit %d, want 1", code)
	}
}

// TestWatchSlowDaemon: a daemon that answers more slowly than the poll
// interval is still polled; the interval is not a request timeout.
func TestWatchSlowDaemon(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		switch r.URL.Path {
		case "/v1/metrics":
			io.WriteString(w, registry(1).DumpMetrics())
		case "/v1/progress":
			json.NewEncoder(w).Encode(obs.ProgressSnapshot{Experiment: "burst"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	if code, _, errOut := snicstat(t, "", "-watch", srv.URL, "-n", "1", "-interval", "10ms"); code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
}
