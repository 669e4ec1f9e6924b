// Command snicd is the fleet-mode control plane daemon: it owns a fleet
// of simulated SmartNICs behind the deterministic manager in
// internal/fleet and serves the northbound HTTP+JSON API.
//
// Serve mode (the default) listens until killed:
//
//	snicd -listen :8080 -seed 7 -policy bestfit
//	curl -s -X POST localhost:8080/v1/devices \
//	     -d '{"name":"nic-a","model":"snic"}'
//	curl -s -X POST localhost:8080/v1/tenants -d '{"name":"acme"}'
//	curl -s -X POST localhost:8080/v1/tenants/acme/nfs -d '{"name":"fw"}'
//	curl -s -X POST localhost:8080/v1/burst -d '{"packets":16}'
//	curl -s localhost:8080/v1/oper
//	curl -s localhost:8080/v1/metrics
//	curl -s 'localhost:8080/v1/metrics?format=prom'
//	curl -s localhost:8080/v1/progress
//
// A bootstrap config (-config FILE) declares devices and tenants to
// apply before serving; its format is the /v1/config JSON shape.
//
// Scenario mode runs one numbered end-to-end script from
// internal/fleet/scenarios against an in-process server and prints the
// four snapshots the test suite pins:
//
//	snicd -scenario internal/fleet/scenarios/01-smoke/scenario.json
//	snicd -scenario ... -show metrics
//
// Everything the daemon reports is simulated time: the fleet clock
// advances only through /v1/burst and /v1/advance, so two runs of the
// same scenario (or the same curl history) at any -workers count are
// byte-identical.
//
// Exit status: 0 on success, 1 on runtime failure, 2 for usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"snic/internal/engine"
	"snic/internal/fleet"
	"snic/internal/obs"
)

// bootConfig is the -config file format: the declarative /v1/config
// shape, applied in order before serving.
type bootConfig struct {
	Devices []fleet.DeviceSpec   `json:"devices"`
	Tenants []fleet.TenantConfig `json:"tenants"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// listen opens serve mode's socket; tests wrap it to reach the listener
// and shut the server down.
var listen = net.Listen

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snicd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("listen", "127.0.0.1:8080", "address to serve the northbound API on")
		seed     = fs.Uint64("seed", 1, "base seed for every derived randomness stream")
		policy   = fs.String("policy", "", "placement policy: bestfit (default), firstfit, spread")
		workers  = fs.Int("workers", 0, "engine pool size for traffic bursts (0 = GOMAXPROCS; results identical for any value)")
		config   = fs.String("config", "", "bootstrap config file (devices and tenants, /v1/config JSON shape)")
		scenario = fs.String("scenario", "", "run one scenario script against an in-process server and exit")
		show     = fs.String("show", "transcript", "scenario output: transcript, oper, metrics, trace, or all")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *scenario != "" {
		// Scenario mode: seed and policy come from the script itself, so
		// a scenario reproduces the goldens regardless of daemon flags.
		return runScenario(*scenario, *show, *workers, stdout, stderr)
	}

	m, err := fleet.NewManager(fleet.Config{
		Seed:    *seed,
		Policy:  *policy,
		Workers: *workers,
		Obs:     obs.NewRegistry(),
		// Live telemetry for /v1/progress, fed by the engine's sanctioned
		// wall clock (no second time.Now site). The deterministic exports
		// never read it.
		Progress: obs.NewProgress(engine.DefaultWall()),
	})
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 2
	}
	if *config != "" {
		if err := applyConfig(m, *config); err != nil {
			fmt.Fprintln(stderr, "snicd:", err)
			return 1
		}
	}

	ln, err := listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "snicd: fleet control plane on http://%s (seed %d, policy %s)\n",
		ln.Addr(), m.Seed(), m.Policy())
	if err := http.Serve(ln, fleet.NewAPI(m)); err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 1
	}
	return 0
}

// applyConfig bootstraps the fleet from a declarative config file.
func applyConfig(m *fleet.Manager, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cfg bootConfig
	if err := json.Unmarshal(buf, &cfg); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	for _, d := range cfg.Devices {
		if err := m.AddDevice(d); err != nil {
			return err
		}
	}
	for _, t := range cfg.Tenants {
		if err := m.Admit(t.Name, t.Quota); err != nil {
			return err
		}
	}
	return nil
}

// runScenario drives one script against an in-process server — the same
// live-HTTP path the scenario test suite uses — and prints the
// requested snapshot(s).
func runScenario(path, show string, workers int, stdout, stderr io.Writer) int {
	sc, err := fleet.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 2
	}
	m, err := fleet.NewManager(fleet.Config{
		Seed:    sc.Seed,
		Policy:  sc.Policy,
		Workers: workers,
		Obs:     obs.NewRegistry(),
	})
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 1
	}
	srv := &http.Server{Handler: fleet.NewAPI(m)}
	go srv.Serve(ln)
	defer srv.Close()

	snap, err := fleet.RunScenario(nil, "http://"+ln.Addr().String(), sc)
	if err != nil {
		fmt.Fprintln(stderr, "snicd:", err)
		return 1
	}
	switch show {
	case "transcript":
		fmt.Fprint(stdout, snap.Transcript)
	case "oper":
		fmt.Fprint(stdout, snap.Oper)
	case "metrics":
		fmt.Fprint(stdout, snap.Metrics)
	case "trace":
		fmt.Fprint(stdout, snap.Trace)
	case "all":
		fmt.Fprint(stdout, snap.Transcript)
		fmt.Fprintln(stdout, "--- oper ---")
		fmt.Fprint(stdout, snap.Oper)
		fmt.Fprintln(stdout, "--- metrics ---")
		fmt.Fprint(stdout, snap.Metrics)
		fmt.Fprintln(stdout, "--- trace ---")
		fmt.Fprint(stdout, snap.Trace)
	default:
		fmt.Fprintf(stderr, "snicd: unknown -show %q (want transcript, oper, metrics, trace, all)\n", show)
		return 2
	}
	return 0
}
