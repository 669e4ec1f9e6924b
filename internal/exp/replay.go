package exp

import (
	"encoding/json"
	"fmt"

	"snic/internal/engine"
	"snic/internal/nf"
	"snic/internal/trace"
)

// ReplayConfig describes a full-scale-shaped CAIDA replay: the Monitor
// NF observing Flows distinct flows × PerFlow packets each, partitioned
// across Shards independent sub-streams. The paper's window is 26.7 M
// flows with a ~50:1 packet:flow ratio (1.34 G packets); `snicbench
// -scale full -experiment replay` runs exactly that shape, while tests
// and the golden suite run scaled-down sizes. Unlike the other sweeps,
// replay streams its workload — per-shard state is O(1) (a stream cursor
// plus an nf.MonitorModel), so the run is checkpointable and resumable
// byte-identically.
type ReplayConfig struct {
	Flows   uint64 // distinct flows across the window
	PerFlow int    // packets per flow
	Shards  int    // independent sub-streams (fixed by the experiment definition)
	Seed    uint64

	// CheckpointPath, if set, persists the checkpoint there and resumes
	// from it when the file already exists.
	CheckpointPath string
	// StopAfter > 0 deliberately interrupts each shard after that many
	// packets in this process run (the resume tests' "kill").
	StopAfter uint64
}

func (c ReplayConfig) validate() error {
	if c.Flows == 0 || c.PerFlow < 1 || c.Shards < 1 {
		return fmt.Errorf("exp: replay config needs flows/perflow/shards >= 1, got %d/%d/%d",
			c.Flows, c.PerFlow, c.Shards)
	}
	return nil
}

// key pins the checkpoint and the derived RNG streams to the workload
// shape. The shard count rides separately in the checkpoint's identity.
func (c ReplayConfig) key() string {
	return fmt.Sprintf("caida-%dx%d", c.Flows, c.PerFlow)
}

// ReplayShardResult is one shard's merged contribution: its slice of the
// flow population, an order-sensitive FNV-1a digest of every tuple it
// generated (so any divergence — wrong draw, wrong order, wrong count —
// changes the digest), and its Monitor memory trajectory.
type ReplayShardResult struct {
	Shard   int     `json:"shard"`
	Flows   uint64  `json:"flows"`
	Packets uint64  `json:"packets"`
	Digest  uint64  `json:"digest"`
	PeakMB  float64 `json:"peak_mb"`
	FinalMB float64 `json:"final_mb"`
	Resizes uint64  `json:"resizes"`
}

// ReplayResult is the deterministic merge (in shard order) of a replay.
type ReplayResult struct {
	Config ReplayConfig
	Shards []ReplayShardResult
	// Digest folds the shard digests in shard order.
	Digest uint64
	// Flows/Packets sum the shards.
	Flows, Packets uint64
	// PeakMB sums per-shard peaks: the fleet-of-shards upper bound for
	// running the partitioned monitor concurrently.
	PeakMB float64
}

// replayCursor is a shard's complete resumable state: stream position,
// analytical monitor model, and running aggregates. Everything is
// integers (or exact-round-trip structs), so the JSON in a checkpoint
// file resumes byte-identically.
type replayCursor struct {
	Stream  trace.Cursor         `json:"stream"`
	Model   nf.MonitorModelState `json:"model"`
	Flows   uint64               `json:"flows"`
	Packets uint64               `json:"packets"`
	Digest  uint64               `json:"digest"`
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func digestKey(h uint64, key [16]byte) uint64 {
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

func mbFloat(b uint64) float64 { return float64(b) / (1 << 20) }

func digestFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// ReplayCAIDA streams the configured window through per-shard Monitor
// models. Like every sweep, results are byte-identical for
// any worker count, and — new with this experiment — across any
// interrupt/resume schedule. On interruption the returned error wraps
// engine.ErrInterrupted and the checkpoint file (if configured) holds
// the resumable state.
//
// It decomposes the window into cfg.Shards engine jobs, each
// walking its own budget stream (trace.NewCAIDABudget on the job-derived
// RNG) against an nf.MonitorModel, checkpointing every checkpointEvery
// packets.
func (r *Runner) ReplayCAIDA(cfg ReplayConfig) (ReplayResult, error) {
	if err := cfg.validate(); err != nil {
		return ReplayResult{}, err
	}
	var ck *engine.Checkpoint
	if cfg.CheckpointPath != "" {
		var err error
		ck, err = engine.LoadOrCreateCheckpoint(cfg.CheckpointPath, "replay", cfg.key(), cfg.Seed, cfg.Shards)
		if err != nil {
			return ReplayResult{}, err
		}
	}
	spec := engine.ShardedSpec[ReplayShardResult]{
		Experiment: "replay",
		Key:        cfg.key(),
		Shards:     cfg.Shards,
		Run: func(s *engine.Shard) (ReplayShardResult, error) {
			return replayShard(s, cfg)
		},
	}
	ecfg := r.config(cfg.Seed)
	// ETA denominator for -progress watchers: the window's full packet
	// count. Telemetry only — the engine never reads it back.
	ecfg.ProgressTarget = cfg.Flows * uint64(cfg.PerFlow)
	out, m, err := engine.RunSharded(ecfg, ck, spec)
	if r != nil && r.Observe != nil {
		r.Observe(m)
	}
	if err != nil {
		return ReplayResult{}, err
	}
	res := ReplayResult{Config: cfg, Shards: out, Digest: fnvOffset64}
	for _, sh := range out {
		res.Flows += sh.Flows
		res.Packets += sh.Packets
		res.PeakMB += sh.PeakMB
		res.Digest = digestFold(res.Digest, sh.Digest)
	}
	return res, nil
}

// checkpointEvery is the replay's save cadence: a shard saves its
// cursor every 64 Ki packets.
const checkpointEvery = 64 << 10

func replayShard(s *engine.Shard, cfg ReplayConfig) (ReplayShardResult, error) {
	share := trace.ShardShare(cfg.Flows, s.Index, cfg.Shards)
	st := trace.NewCAIDABudget(s.Rng, share, cfg.PerFlow)
	model := nf.NewMonitorModel()
	cur := replayCursor{Digest: fnvOffset64}
	if raw := s.Cursor(); raw != nil {
		if err := json.Unmarshal(raw, &cur); err != nil {
			return ReplayShardResult{}, fmt.Errorf("exp: replay shard %d cursor: %w", s.Index, err)
		}
		if err := st.Seek(cur.Stream); err != nil {
			return ReplayShardResult{}, fmt.Errorf("exp: replay shard %d: %w", s.Index, err)
		}
		// Every save writes the counters from the same packets the
		// stream yielded; counters that disagree would resume into
		// wrong totals.
		if cur.Packets != st.Pos() || cur.Flows != st.TotalFlows() || cur.Model.Flows != cur.Flows {
			return ReplayShardResult{}, fmt.Errorf("exp: replay shard %d cursor counts %d packets, %d flows and %d model flows, its stream %d packets and %d flows",
				s.Index, cur.Packets, cur.Flows, cur.Model.Flows, st.Pos(), st.TotalFlows())
		}
		model = nf.RestoreMonitorModel(cur.Model)
	}
	save := func() error {
		cur.Stream = st.Cursor()
		cur.Model = model.State()
		return s.Save(cur, ReplayShardResult{
			Shard: s.Index, Flows: cur.Flows, Packets: cur.Packets, Digest: cur.Digest,
			PeakMB: mbFloat(model.Peak()), FinalMB: mbFloat(model.Live()), Resizes: model.Resizes(),
		})
	}
	// posEvery throttles progress publication: a mutex hit every 4 Ki
	// packets is invisible next to the per-packet model work.
	const posEvery = 4 << 10
	s.Pos(st.Pos())
	var processed uint64 // packets in this process run, for StopAfter
	// Budget streams emit each flow's PerFlow packets consecutively. So
	// a flow's key is encoded once, when the flow index changes (keyIdx
	// -1 makes that the run's first packet, mid-flow after a resume too),
	// and the first packet of every PerFlow group introduces a new flow:
	// no per-flow state is needed even across a resume boundary.
	var key [16]byte
	keyIdx := -1
	for {
		idx, p, ok := st.Next()
		if !ok {
			break
		}
		if idx != keyIdx {
			key, keyIdx = p.Tuple.Key(), idx
		}
		newFlow := cur.Packets%uint64(cfg.PerFlow) == 0
		model.Observe(newFlow)
		if newFlow {
			cur.Flows++
		}
		cur.Packets++
		cur.Digest = digestKey(cur.Digest, key)
		processed++
		if processed%posEvery == 0 {
			s.Pos(st.Pos())
		}
		if cur.Packets%checkpointEvery == 0 {
			if err := save(); err != nil {
				return ReplayShardResult{}, err
			}
		}
		if cfg.StopAfter > 0 && processed >= cfg.StopAfter && st.TotalFlows() < share {
			if err := save(); err != nil {
				return ReplayShardResult{}, err
			}
			return ReplayShardResult{}, engine.ErrInterrupted
		}
	}
	s.Pos(st.Pos())
	return ReplayShardResult{
		Shard: s.Index, Flows: cur.Flows, Packets: cur.Packets, Digest: cur.Digest,
		PeakMB: mbFloat(model.Peak()), FinalMB: mbFloat(model.Live()), Resizes: model.Resizes(),
	}, nil
}

// RenderReplay formats the merged replay: one row per shard plus totals,
// with the digest printed in hex so resume regressions show as a visible
// diff.
func RenderReplay(res ReplayResult) Table {
	t := Table{
		Title: fmt.Sprintf("Replay: CAIDA-shaped window, %d flows x %d pkts over %d shards",
			res.Config.Flows, res.Config.PerFlow, res.Config.Shards),
		Header: []string{"shard", "flows", "packets", "peak MB", "final MB", "resizes", "digest"},
	}
	for _, sh := range res.Shards {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("s%03d", sh.Shard),
			fmt.Sprintf("%d", sh.Flows),
			fmt.Sprintf("%d", sh.Packets),
			f2(sh.PeakMB),
			f2(sh.FinalMB),
			fmt.Sprintf("%d", sh.Resizes),
			fmt.Sprintf("%016x", sh.Digest),
		})
	}
	t.Rows = append(t.Rows, []string{
		"total",
		fmt.Sprintf("%d", res.Flows),
		fmt.Sprintf("%d", res.Packets),
		f2(res.PeakMB),
		"",
		"",
		fmt.Sprintf("%016x", res.Digest),
	})
	t.Notes = append(t.Notes,
		"peak MB sums per-shard monitor peaks (concurrent partitioned upper bound)",
		"digest is an order-sensitive FNV-1a fold of every generated tuple")
	return t
}
