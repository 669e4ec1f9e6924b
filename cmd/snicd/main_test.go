package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"snic/internal/fleet"
	"snic/internal/obs"
)

// capture runs fn with stdout and stderr captured and returns what was
// written to each.
func capture(t *testing.T, fn func(stdout, stderr io.Writer) int) (int, string, string) {
	t.Helper()
	var so, se bytes.Buffer
	code := fn(&so, &se)
	return code, so.String(), se.String()
}

// TestScenarioModeMatchesGolden runs snicd -scenario end to end at 16
// workers for every numbered scenario and compares each transcript
// against the suite's pinned golden: same seed, same policy, any worker
// count.
func TestScenarioModeMatchesGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("..", "..", "internal", "fleet", "scenarios", "[0-9]*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no scenarios found")
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			code, out, errOut := capture(t, func(so, se io.Writer) int {
				return run([]string{"-scenario", filepath.Join(dir, "scenario.json"), "-workers", "16"}, so, se)
			})
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, errOut)
			}
			want, err := os.ReadFile(filepath.Join(dir, "golden", "transcript.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("scenario transcript differs from golden:\n%s", out)
			}
		})
	}
}

// TestScenarioModeShowVariants covers the -show selector and its usage
// error.
func TestScenarioModeShowVariants(t *testing.T) {
	script := filepath.Join("..", "..", "internal", "fleet", "scenarios", "01-smoke", "scenario.json")
	for show, prefix := range map[string]string{
		"metrics": "# snic-metrics v1\n",
		"trace":   "# snic-trace v1\n",
		"oper":    "{\n",
		"all":     "# snic-scenario",
	} {
		code, out, errOut := capture(t, func(so, se io.Writer) int {
			return run([]string{"-scenario", script, "-show", show}, so, se)
		})
		if code != 0 {
			t.Fatalf("-show %s: exit %d\n%s", show, code, errOut)
		}
		if !strings.HasPrefix(out, prefix) {
			t.Errorf("-show %s output starts %q, want prefix %q", show, out[:min(20, len(out))], prefix)
		}
	}
	if code, _, _ := capture(t, func(so, se io.Writer) int {
		return run([]string{"-scenario", script, "-show", "everything"}, so, se)
	}); code != 2 {
		t.Errorf("bad -show exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, func(so, se io.Writer) int {
		return run([]string{"-scenario", "no/such/file.json"}, so, se)
	}); code != 2 {
		t.Errorf("missing scenario exit = %d, want 2", code)
	}
}

// TestApplyConfig bootstraps a manager from a config file and checks
// both the happy path and a duplicate declaration.
func TestApplyConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	cfg := `{
  "devices": [
    {"name": "nic-a", "model": "snic"},
    {"name": "nic-b", "model": "bluefield"}
  ],
  "tenants": [{"name": "acme", "quota": {"cores": 4}}]
}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := fleet.NewManager(fleet.Config{Seed: 1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyConfig(m, path); err != nil {
		t.Fatal(err)
	}
	st := m.Configured()
	if len(st.Devices) != 2 || len(st.Tenants) != 1 {
		t.Fatalf("config not applied: %+v", st)
	}
	if err := applyConfig(m, path); err == nil {
		t.Fatal("duplicate bootstrap accepted")
	}
}

// TestBadFlags pins the usage exit code.
func TestBadFlags(t *testing.T) {
	if code, _, _ := capture(t, func(so, se io.Writer) int {
		return run([]string{"-no-such-flag"}, so, se)
	}); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, func(so, se io.Writer) int {
		return run([]string{"-policy", "martian", "-listen", "127.0.0.1:0"}, so, se)
	}); code != 2 {
		t.Errorf("bad policy exit = %d, want 2", code)
	}
}

// TestServeTelemetry boots serve mode on an ephemeral port, drives a
// burst over real HTTP, and checks the read-side telemetry surfaces:
// the startup announcement the benchmark harness parses, a Prometheus
// exposition the in-repo validator accepts, and the /v1/progress JSON
// snapshot. Both live outside the deterministic exports, so this
// asserts shape, not bytes.
func TestServeTelemetry(t *testing.T) {
	lns := make(chan net.Listener, 1)
	listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err == nil {
			lns <- ln
		}
		return ln, err
	}
	defer func() { listen = net.Listen }()

	pr, pw := io.Pipe()
	exited := make(chan int, 1)
	go func() { exited <- run([]string{"-listen", "127.0.0.1:0", "-seed", "7"}, io.Discard, pw) }()
	var ln net.Listener
	select {
	case ln = <-lns:
	case code := <-exited:
		t.Fatalf("serve mode exited %d before listening", code)
	}
	defer func() {
		pr.Close() // stderr writes now fail instead of blocking
		ln.Close()
		if code := <-exited; code != 1 {
			t.Errorf("serve mode exited %d after its listener closed, want 1", code)
		}
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`^snicd: fleet control plane on http://(\S+) \(seed 7, policy \w+\)\n$`).FindStringSubmatch(line)
	if m == nil || m[1] != ln.Addr().String() {
		t.Fatalf("announcement %q does not name %s", line, ln.Addr())
	}
	base := "http://" + m[1]

	for _, req := range []struct{ path, body string }{
		{"/v1/devices", `{"name":"nic-a","model":"snic"}`},
		{"/v1/tenants", `{"name":"acme"}`},
		{"/v1/tenants/acme/nfs", `{"name":"fw"}`},
		{"/v1/burst", `{"packets":64}`},
	} {
		resp, err := http.Post(base+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: HTTP %d", req.path, resp.StatusCode)
		}
	}
	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	if err := obs.ValidateExposition(bytes.NewReader(get("/v1/metrics?format=prom"))); err != nil {
		t.Errorf("/v1/metrics?format=prom: %v", err)
	}
	var progress map[string]any
	if err := json.Unmarshal(get("/v1/progress"), &progress); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_total", "items_per_sec"} {
		if _, ok := progress[key]; !ok {
			t.Errorf("/v1/progress lacks %q: %v", key, progress)
		}
	}
}
