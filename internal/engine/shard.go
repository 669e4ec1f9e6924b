package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"snic/internal/obs"
	"snic/internal/sim"
)

// ErrInterrupted is the sentinel a shard returns to stop a sweep on
// purpose (deliberate interruption for checkpoint testing, a packet
// budget reached, an operator stop). RunSharded reports it — wrapped, so
// test with errors.Is — only when every failing shard was interrupted;
// any real failure takes precedence. The checkpoint holds each
// interrupted shard's last saved cursor, so rerunning the same spec
// resumes byte-identically.
var ErrInterrupted = errors.New("interrupted")

// Shard is the per-shard context handed to a ShardedSpec's Run: the
// shard's index, its exclusively owned derived RNG, and access to the
// sweep's checkpoint. A resuming shard reads its saved position with
// Cursor and periodically calls Save so a later kill loses at most the
// work since the last save.
type Shard struct {
	Index int
	Rng   *sim.Rand
	ck    *Checkpoint
	prog  *obs.Progress
}

// Cursor returns the shard's saved cursor from a previous run, or nil on
// a fresh start.
func (s *Shard) Cursor() json.RawMessage { return s.ck.cursor(s.Index) }

// Save records the shard's current cursor (and an optional partial
// aggregate, for humans inspecting the checkpoint file), persisting the
// checkpoint if it has an autosave path. A successful save also stamps
// the run's progress telemetry, so watchers see checkpoint lag.
func (s *Shard) Save(cursor, partial any) error {
	if err := s.ck.save(s.Index, cursor, partial); err != nil {
		return err
	}
	s.prog.Saved()
	return nil
}

// Pos publishes the shard's current item position (a CAIDAStream
// position for replay shards) to the run's progress telemetry.
// Write-only and nil-safe: shard code may call it unconditionally and
// nothing simulated ever depends on it.
func (s *Shard) Pos(pos uint64) { s.prog.Pos(s.Index, pos) }

// ShardedSpec decomposes one logical sweep point into Shards independent
// sub-jobs. Each shard's RNG is derived from (seed, Experiment,
// Key+"/s<i>"), so its stream is a pure function of the shard identity;
// results are merged in shard order regardless of scheduling, making the
// sharded run worker-count invariant like every other engine sweep.
type ShardedSpec[T any] struct {
	Experiment string
	Key        string
	Shards     int
	Run        func(s *Shard) (T, error)
}

// RunSharded executes the spec's shards on the engine pool and returns
// their results in shard order. ck carries resumable state: shards
// already Done are not re-run (their recorded results are decoded and
// merged in place — byte-identical because results round-trip JSON
// losslessly), unfinished shards see their saved cursors. A nil ck runs
// with an ephemeral in-memory checkpoint.
//
// On interruption (every failing shard returned ErrInterrupted) the
// error wraps ErrInterrupted and the checkpoint — already persisted if
// it autosaves — is what the caller reruns from. The result slice is
// only meaningful when the error is nil.
func RunSharded[T any](cfg Config, ck *Checkpoint, spec ShardedSpec[T]) ([]T, Metrics, error) {
	if spec.Shards < 1 {
		return nil, Metrics{}, fmt.Errorf("engine: sharded %s/%s: %d shards", spec.Experiment, spec.Key, spec.Shards)
	}
	if ck == nil {
		ck = NewCheckpoint(spec.Experiment, spec.Key, cfg.Seed, spec.Shards)
	}
	if err := ck.compatible(spec.Experiment, spec.Key, cfg.Seed, spec.Shards); err != nil {
		return nil, Metrics{}, fmt.Errorf("engine: sharded %s/%s: %w", spec.Experiment, spec.Key, err)
	}
	jobs := make([]Job[T], spec.Shards)
	for i := range jobs {
		i := i
		jobs[i] = Job[T]{
			Experiment: spec.Experiment,
			Key:        fmt.Sprintf("%s/s%03d", spec.Key, i),
			Run: func(rng *sim.Rand) (T, error) {
				var v T
				if raw, done := ck.result(i); done {
					if err := json.Unmarshal(raw, &v); err != nil {
						return v, fmt.Errorf("decode checkpointed result: %w", err)
					}
					return v, nil
				}
				v, err := spec.Run(&Shard{Index: i, Rng: rng, ck: ck, prog: cfg.Progress})
				if err != nil {
					return v, err
				}
				return v, ck.finish(i, v)
			},
		}
	}
	out, m, err := Run(cfg, jobs)
	if err != nil {
		// Prefer a real failure over deliberate interruption: only when
		// every failing shard was interrupted is the sweep "interrupted".
		for _, s := range m.Jobs {
			if s.Err != nil && !errors.Is(s.Err, ErrInterrupted) {
				return out, m, fmt.Errorf("engine: job %s/%s: %w", s.Experiment, s.Key, s.Err)
			}
		}
		return out, m, fmt.Errorf("engine: sharded %s/%s: %w", spec.Experiment, spec.Key, ErrInterrupted)
	}
	return out, m, nil
}
