package fleet

import (
	"fmt"
	"math"
	"sort"

	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/obs"
	"snic/internal/sim"
)

// ChurnSpec is one serverless-churn run (POST /v1/churn): every active
// device continuously launches, attests, and tears down short-lived
// ephemeral functions — λ-NIC-style workloads — without touching the
// tenant placement tables. The run is self-contained: every ephemeral
// function is torn down before it returns, so the fleet's schedulable
// state is exactly what it was, plus the clock advance and the stats.
type ChurnSpec struct {
	// Events is the number of lifecycle events per device (default 40).
	Events int `json:"events,omitempty"`
	// Target is the steady-state ephemeral-function count per device,
	// clamped to the device's free cores (default 2).
	Target int `json:"target,omitempty"`
	// Batch is the attestation batch size on S-NICs when FastPath is on
	// (default 4); the cold path always attests one quote per function.
	Batch int `json:"batch,omitempty"`
	// MemMB is the per-function reservation (default 1).
	MemMB uint64 `json:"mem_mb,omitempty"`
	// FastPath enables the S-NIC churn fast paths — batched attestation,
	// warm scrubbed-arena pool, parallel teardown scrub — for the
	// duration of the run; each device's prior configuration is restored
	// (and any parked frames drained) before the run returns.
	FastPath bool `json:"fast_path,omitempty"`
}

func (s *ChurnSpec) defaults() {
	if s.Events == 0 {
		s.Events = 40
	}
	if s.Target == 0 {
		s.Target = 2
	}
	if s.Batch == 0 {
		s.Batch = 4
	}
	if s.MemMB == 0 {
		s.MemMB = 1
	}
}

// validate rejects a body the run cannot honour before any state
// changes: negative counts, and a reservation whose byte size wraps
// (and would then default to 1 MB launches).
func (s ChurnSpec) validate() error {
	switch {
	case s.Events < 0 || s.Target < 0 || s.Batch < 0:
		return fmt.Errorf("fleet: churn events, target and batch must be non-negative")
	case s.MemMB > math.MaxUint64>>20:
		return fmt.Errorf("fleet: churn mem_mb %d overflows a byte count", s.MemMB)
	}
	return nil
}

// DeviceChurn is one device's slice of a churn run — and, accumulated
// across runs, the per-device block /v1/oper/stats serves. Latency is
// simulated control-path milliseconds; commodity models carry no
// control-path cost model, so their SimMS (and launches/sec) stay zero.
type DeviceChurn struct {
	Device     string  `json:"device"`
	Launches   uint64  `json:"launches"`
	Fails      uint64  `json:"fails,omitempty"`
	Attests    uint64  `json:"attests"`
	Teardowns  uint64  `json:"teardowns"`
	PoolHits   uint64  `json:"pool_hits,omitempty"`
	PoolMisses uint64  `json:"pool_misses,omitempty"`
	SimMS      float64 `json:"sim_ms"`
	PerSec     float64 `json:"launches_per_sec"`
}

// add folds one run's slice into a cumulative accumulator, recomputing
// the throughput from the folded totals.
func (d *DeviceChurn) add(r DeviceChurn) {
	d.Launches += r.Launches
	d.Fails += r.Fails
	d.Attests += r.Attests
	d.Teardowns += r.Teardowns
	d.PoolHits += r.PoolHits
	d.PoolMisses += r.PoolMisses
	d.SimMS += r.SimMS
	d.PerSec = perSec(d.Launches, d.SimMS)
}

func perSec(launches uint64, simMS float64) float64 {
	if simMS <= 0 {
		return 0
	}
	return float64(launches) / (simMS / 1e3)
}

// ChurnResult summarizes one churn run across the fleet.
type ChurnResult struct {
	Churn     uint64        `json:"churn"`
	Devices   []DeviceChurn `json:"devices"`
	Launches  uint64        `json:"launches"`
	Fails     uint64        `json:"fails,omitempty"`
	Attests   uint64        `json:"attests"`
	Teardowns uint64        `json:"teardowns"`
	Cycles    uint64        `json:"cycles"` // clock advance: the slowest device
	Clock     uint64        `json:"clock"`  // fleet clock after the run
}

// Churn drives one churn run on every active device. Like Burst, the
// run fans out one engine job per device through fanOutLocked: each
// device cycles its own ephemeral functions from its own derived
// stream, so the result — and every golden downstream of it — is
// byte-identical at any worker count.
func (m *Manager) Churn(spec ChurnSpec) (ChurnResult, error) {
	if err := spec.validate(); err != nil {
		return ChurnResult{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	spec.defaults()

	round := m.churns
	m.churns++

	names := make([]string, 0, len(m.devices))
	for n, d := range m.devices {
		if d.state == stateActive {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	start := m.clock
	jobs := make([]engine.Job[DeviceChurn], len(names))
	for i, n := range names {
		md := m.devices[n]
		jobs[i] = engine.Job[DeviceChurn]{
			Experiment: "fleet/churn",
			Key:        fmt.Sprintf("%03d/%s", round, n),
			Run: func(rng *sim.Rand) (DeviceChurn, error) {
				return m.churnDevice(md, spec, round, start, rng)
			},
		}
	}
	results, err := fanOutLocked(m, jobs)
	if err != nil {
		return ChurnResult{}, err
	}

	out := ChurnResult{Churn: round, Devices: results}
	for i, r := range results {
		md := m.devices[names[i]]
		md.churn.Device = md.name
		md.churn.add(r)
		out.Launches += r.Launches
		out.Fails += r.Fails
		out.Attests += r.Attests
		out.Teardowns += r.Teardowns
		if c := obs.MSToCycles(r.SimMS); c > out.Cycles {
			out.Cycles = c
		}
	}
	m.clock += out.Cycles
	m.stats.ChurnRuns++
	m.stats.ChurnLaunches += out.Launches
	m.stats.ChurnFails += out.Fails
	m.stats.ChurnAttests += out.Attests
	m.stats.ChurnTeardowns += out.Teardowns
	m.event(fmt.Sprintf("churn %03d", round))
	out.Clock = m.clock
	return out, nil
}

// churnDevice runs one device's slice of a churn run through
// device.RunChurn and books it on the device's obs counters and trace
// track. md is owned exclusively by this job (see fanOutLocked).
func (m *Manager) churnDevice(md *managedDevice, spec ChurnSpec, round, start uint64, rng *sim.Rand) (DeviceChurn, error) {
	out := DeviceChurn{Device: md.name}
	c, err := device.RunChurn(md.nic, device.Churn{
		Events: spec.Events, Target: spec.Target, Batch: spec.Batch, Fast: spec.FastPath,
		Func: func(seq int) device.FuncSpec {
			return device.FuncSpec{Name: fmt.Sprintf("churn-%03d-%04d", round, seq), MemBytes: spec.MemMB << 20}
		},
		// Summed in event order: the JSON carries sim_ms at full precision.
		Observe: func(_ device.ChurnPhase, ms float64, _ int) { out.SimMS += ms },
	}, rng)
	if err != nil {
		return out, err
	}
	out.Launches, out.Fails, out.Attests, out.Teardowns = c.Launches, c.Fails, c.Attests, c.Teardowns
	out.PoolHits, out.PoolMisses = c.PoolHits, c.PoolMisses
	out.PerSec = perSec(out.Launches, out.SimMS)

	lbl := func(name string) obs.Label {
		return obs.Label{Device: "fleet/" + md.name, Owner: "-", Component: "churn", Name: name}
	}
	m.cfg.Obs.Counter(lbl("launches")).Add(out.Launches)
	m.cfg.Obs.Counter(lbl("attests")).Add(out.Attests)
	m.cfg.Obs.Counter(lbl("teardowns")).Add(out.Teardowns)
	m.cfg.Obs.Tracer("fleet/"+md.name+"/churn").Span(
		"churn", fmt.Sprintf("churn %03d", round), start, obs.MSToCycles(out.SimMS))
	return out, nil
}

// StatsView is what /v1/oper/stats serves: the cumulative scheduler
// counters plus, once a churn run has happened, the per-device churn
// accounting with launches/sec. The churn block is omitted while empty
// so pre-churn stats dumps are byte-identical to the plain Stats form.
type StatsView struct {
	Stats
	Churn []DeviceChurn `json:"churn,omitempty"`
}

// StatsView returns the cumulative counters plus per-device churn
// throughput.
func (m *Manager) StatsView() StatsView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := StatsView{Stats: m.stats}
	for _, name := range m.sortedDeviceNames() {
		md := m.devices[name]
		if md.churn.Launches+md.churn.Fails == 0 {
			continue
		}
		v.Churn = append(v.Churn, md.churn)
	}
	return v
}
