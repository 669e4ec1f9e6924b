package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"snic/internal/fleet"
	"snic/internal/sim"
)

// bootstrap is the fleet every fleet run starts from: 2 S-NICs, an
// Agilio and a BlueField, 16 cores and 512 MB each, and 8 tenants with
// unlimited quotas. Its JSON form is snicd's -config file.
type bootstrap struct {
	Devices []fleet.DeviceSpec   `json:"devices"`
	Tenants []fleet.TenantConfig `json:"tenants"`
}

func fleetBootstrap() bootstrap {
	var b bootstrap
	for _, d := range [][2]string{{"snic-0", "snic"}, {"snic-1", "snic"}, {"agilio-0", "agilio"}, {"bluefield-0", "bluefield"}} {
		b.Devices = append(b.Devices, fleet.DeviceSpec{Name: d[0], Model: d[1], Cores: 16, MemMB: 512})
	}
	for i := 0; i < 8; i++ {
		b.Tenants = append(b.Tenants, fleet.TenantConfig{Name: fmt.Sprintf("tenant-%d", i)})
	}
	return b
}

// maxLive bounds the live NFs. It is set so that no request of the mix
// fails, not from observed use: a fleet-placed S-NIC function reserves
// 256 KB of the 1 MB switch TX buffer, so each S-NIC holds at most 4,
// and the BlueField's bump-only secure allocator runs out under churn.
// With at most 8 live NFs, draining any one device always finds homes
// for its NFs on the others.
const maxLive = 8

// fleetOp is one writer request.
type fleetOp struct {
	Kind   string // place, remove, burst, churn, drain, undrain, evict, admit
	Tenant string
	NF     string
	Device string
	Fast   bool
}

// fleetMix is the writer's op mix in percent of draws. The drain and
// evict draws each issue two requests (drain+undrain, evict+readmit).
//
// The mix is synthetic: no published trace gives the shares of NF
// control-plane operations, so each share is a choice, made as follows.
// NF lifecycle is most of the traffic, as in serverless NF platforms
// where functions come and go per request. Places outnumber removes so
// the fleet fills to maxLive and stays near full, where bin-packing and
// launch refusals do the most work; at the cap a place becomes a remove,
// so 4,000 draws issue about 1,630 places and 1,570 removes. Bursts (12%)
// hold the Manager lock across engine fan-out, so some reads queue
// behind them. Churn requests are heavy (8 launches per device
// each), so 3% already makes churn a large share of snicd's time.
// Drains and evictions are rare maintenance, 3% and 2%, kept so that
// migration and eviction run in every timed run. The per-class p50s
// (api.*, fleet.*) of the traced run do not depend on these weights.
var fleetMix = []struct {
	kind string
	pct  int
}{{"place", 55}, {"remove", 25}, {"burst", 12}, {"churn", 3}, {"drain", 3}, {"evict", 2}}

// fleetOps generates the writer's request sequence for n draws of the
// mix: exactly the mix's share of each kind, in an order shuffled by the
// seed, so every seed asks for the same work. A place at maxLive live
// NFs becomes a remove and a remove with none live becomes a place; the
// churn fast path alternates. It returns the sequence and the number of
// NFs live at its end.
func fleetOps(seed uint64, n int) ([]fleetOp, int) {
	rng := sim.DeriveRand(seed, "bench", "fleet-ops")
	var deck []string
	for _, m := range fleetMix {
		for i := 0; i < n*m.pct/100; i++ {
			deck = append(deck, m.kind)
		}
	}
	for len(deck) < n {
		deck = append(deck, "place")
	}
	for i := len(deck) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}

	boot := fleetBootstrap()
	live := make(map[string][]string) // tenant -> live NF names, in placement order
	total, seq, churns := 0, 0, 0
	var ops []fleetOp
	for _, kind := range deck {
		switch {
		case kind == "place" && total >= maxLive, kind == "remove" && total > 0:
			k := rng.Intn(total)
			for _, tc := range boot.Tenants {
				nfs := live[tc.Name]
				if k < len(nfs) {
					live[tc.Name] = append(nfs[:k:k], nfs[k+1:]...)
					ops = append(ops, fleetOp{Kind: "remove", Tenant: tc.Name, NF: nfs[k]})
					break
				}
				k -= len(nfs)
			}
			total--
		case kind == "place", kind == "remove":
			t := boot.Tenants[rng.Intn(len(boot.Tenants))].Name
			nfName := fmt.Sprintf("nf-%05d", seq)
			seq++
			live[t] = append(live[t], nfName)
			total++
			ops = append(ops, fleetOp{Kind: "place", Tenant: t, NF: nfName})
		case kind == "burst":
			ops = append(ops, fleetOp{Kind: "burst"})
		case kind == "churn":
			ops = append(ops, fleetOp{Kind: "churn", Fast: churns%2 == 1})
			churns++
		case kind == "drain":
			d := boot.Devices[rng.Intn(len(boot.Devices))].Name
			ops = append(ops, fleetOp{Kind: "drain", Device: d}, fleetOp{Kind: "undrain", Device: d})
		default: // evict
			t := boot.Tenants[rng.Intn(len(boot.Tenants))].Name
			total -= len(live[t])
			live[t] = nil
			ops = append(ops, fleetOp{Kind: "evict", Tenant: t}, fleetOp{Kind: "admit", Tenant: t})
		}
	}
	return ops, total
}

// Request bodies of the mix.
var (
	burstSpec = fleet.WorkloadSpec{Packets: 16, AccelOps: 2, BusOps: 4}
	churnSpec = fleet.ChurnSpec{Events: 8, Target: 2, Batch: 4}
)

// request maps an op onto the northbound API.
func (op fleetOp) request() (method, path string, body any) {
	switch op.Kind {
	case "place":
		return http.MethodPost, "/v1/tenants/" + op.Tenant + "/nfs", fleet.NFSpec{Name: op.NF}
	case "remove":
		return http.MethodDelete, "/v1/tenants/" + op.Tenant + "/nfs/" + op.NF, nil
	case "burst":
		return http.MethodPost, "/v1/burst", burstSpec
	case "churn":
		spec := churnSpec
		spec.FastPath = op.Fast
		return http.MethodPost, "/v1/churn", spec
	case "drain", "undrain":
		return http.MethodPost, "/v1/devices/" + op.Device + "/" + op.Kind, nil
	case "evict":
		return http.MethodDelete, "/v1/tenants/" + op.Tenant, nil
	default: // admit
		return http.MethodPost, "/v1/tenants", map[string]string{"name": op.Tenant}
	}
}

// apply runs the op directly on an in-process Manager.
func (op fleetOp) apply(m *fleet.Manager) error {
	switch op.Kind {
	case "place":
		_, err := m.Place(op.Tenant, fleet.NFSpec{Name: op.NF})
		return err
	case "remove":
		return m.Remove(op.Tenant, op.NF)
	case "burst":
		_, err := m.Burst(burstSpec)
		return err
	case "churn":
		spec := churnSpec
		spec.FastPath = op.Fast
		_, err := m.Churn(spec)
		return err
	case "drain":
		return m.Drain(op.Device)
	case "undrain":
		return m.Undrain(op.Device)
	case "evict":
		return m.Evict(op.Tenant)
	default: // admit
		return m.Admit(op.Tenant, fleet.ResourceSpec{})
	}
}

// newManager builds an in-process Manager configured like the snicd the
// fleet workload starts, with the bootstrap applied.
func newManager(seed uint64, cfg fleet.Config) (*fleet.Manager, error) {
	cfg.Seed, cfg.Workers = seed, workers
	m, err := fleet.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	boot := fleetBootstrap()
	for _, d := range boot.Devices {
		if err := m.AddDevice(d); err != nil {
			return nil, err
		}
	}
	for _, t := range boot.Tenants {
		if err := m.Admit(t.Name, t.Quota); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// readPaths are the exports the reader cycles through.
var readPaths = []string{"/v1/oper", "/v1/oper/stats", "/v1/metrics?format=prom"}

// fleetRun is what one closed-loop session over HTTP measured.
type fleetRun struct {
	writeMS, readMS []float64
	byClass         map[string][]float64 // per op kind and per read path
	readBytes       []float64
	failed          int
	placements      int // in the final GET /v1/oper
	digest          string
}

// driveFleet runs the session against base: one writer issues ops in
// order over its own connection while one reader cycles the exports over
// another until the writer finishes. Both loops are closed: each sends
// its next request only after the previous reply is read. A request
// that does not return 2xx counts as failed.
func driveFleet(base string, ops []fleetOp, tr *tracer, parent int) (*fleetRun, error) {
	res := &fleetRun{byClass: map[string][]float64{}}
	var mu sync.Mutex
	var reqID atomic.Int64
	do := func(c *http.Client, class, method, path string, body any) ([]byte, float64, error) {
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				return nil, 0, err
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		resp, err := c.Do(req)
		if err != nil {
			return nil, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		end := time.Now()
		ms := float64(end.Sub(start)) / 1e6
		tr.record("api."+class, parent, start, end, 0, int(reqID.Add(1)))
		mu.Lock()
		res.byClass[class] = append(res.byClass[class], ms)
		mu.Unlock()
		if err != nil {
			return nil, ms, err
		}
		if resp.StatusCode/100 != 2 {
			return data, ms, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
		return data, ms, nil
	}
	client := func() *http.Client { return &http.Client{Transport: &http.Transport{}, Timeout: time.Minute} }
	writer, reader := client(), client()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			path := readPaths[i%len(readPaths)]
			data, ms, err := do(reader, "read "+path, http.MethodGet, path, nil)
			mu.Lock()
			res.readMS = append(res.readMS, ms)
			res.readBytes = append(res.readBytes, float64(len(data)))
			if err != nil {
				res.failed++
				fmt.Fprintln(os.Stderr, "bench: fleet reader:", err)
			}
			mu.Unlock()
		}
	}()
	for _, op := range ops {
		method, path, body := op.request()
		_, ms, err := do(writer, op.Kind, method, path, body)
		mu.Lock()
		res.writeMS = append(res.writeMS, ms)
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "bench: fleet writer:", err)
		}
		mu.Unlock()
	}
	close(done)
	wg.Wait()

	data, _, err := do(writer, "final oper", http.MethodGet, "/v1/oper", nil)
	if err != nil {
		return res, err
	}
	var st fleet.OperState
	if err := json.Unmarshal(data, &st); err != nil {
		return res, fmt.Errorf("final oper: %w", err)
	}
	for _, t := range st.Tenants {
		res.placements += len(t.NFs)
	}
	res.digest = digestOf(string(data))
	return res, nil
}

// fleetOutcome checks a session against the writer's own model and
// folds it into an outcome: items are writer completions, units are
// every request, writes and reads alike.
func fleetOutcome(run *fleetRun, ops []fleetOp, wantLive int) outcome {
	o := outcome{
		Items:     float64(len(run.writeMS)),
		UnitMS:    append(append([]float64(nil), run.writeMS...), run.readMS...),
		Attempted: len(run.writeMS) + len(run.readMS) + 1,
		Failed:    run.failed,
		Digest:    run.digest,
	}
	if run.placements != wantLive {
		o.Failed++
		fmt.Fprintf(os.Stderr, "bench: fleet: final oper has %d placements, the writer's model %d\n", run.placements, wantLive)
	}
	return o
}

// snicd is a running daemon started by the fleet workload.
type snicd struct {
	cmd    *exec.Cmd
	url    string
	stderr *bufio.Reader
}

// startSnicd launches the daemon on an ephemeral port with the
// bootstrap config and waits until it listens with the bootstrap
// applied (snicd applies -config before it listens and announces).
func startSnicd(bin, dir string, seed uint64) (*snicd, error) {
	cfg, err := json.Marshal(fleetBootstrap())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "fleet-boot-*.json")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(cfg); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", fmt.Sprint(workers),
		"-seed", fmt.Sprint(seed), "-config", f.Name())
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the child
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &snicd{cmd: cmd, stderr: bufio.NewReader(pipe)}
	line, err := d.stderr.ReadString('\n')
	_, rest, ok := strings.Cut(line, " on http://")
	addr, _, _ := strings.Cut(rest, " ")
	if err != nil || !ok || addr == "" {
		d.stop()
		return nil, fmt.Errorf("snicd did not come up: %q %v", line, err)
	}
	d.url = "http://" + addr
	return d, nil
}

// stop kills the daemon, waits for it to exit, and returns its resource
// usage: CPU seconds and peak RSS in MB.
func (d *snicd) stop() (cpuS, rssMB float64) {
	d.cmd.Process.Kill()
	io.Copy(io.Discard, d.stderr)
	d.cmd.Wait()
	return rusageOf(d.cmd.ProcessState)
}

// checkScenarios replays every numbered fleet scenario through
// `snicd -scenario` and compares each transcript with its committed
// golden. It returns how many it checked and how many differ.
func checkScenarios(bin string) (checked, bad int, err error) {
	dirs, err := filepath.Glob("internal/fleet/scenarios/[0-9][0-9]-*")
	if err != nil {
		return 0, 0, err
	}
	if len(dirs) == 0 {
		return 0, 0, errors.New("no fleet scenarios found")
	}
	for _, dir := range dirs {
		want, err := os.ReadFile(filepath.Join(dir, "golden", "transcript.txt"))
		if err != nil {
			return checked, bad, err
		}
		got, err := exec.Command(bin, "-scenario", filepath.Join(dir, "scenario.json")).Output()
		checked++
		if err != nil || !bytes.Equal(got, want) {
			bad++
			fmt.Fprintf(os.Stderr, "bench: scenario %s: transcript differs from its golden (%v)\n", dir, err)
		}
	}
	return checked, bad, nil
}
