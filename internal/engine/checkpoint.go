package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// CheckpointVersion is stamped into every checkpoint file; LoadCheckpoint
// rejects other versions rather than guessing at migration.
const CheckpointVersion = 1

// ShardState is one shard's saved progress inside a Checkpoint. Until
// the shard finishes, Cursor holds the generator position its next run
// resumes from and Partial an optional caller-defined aggregate; once
// Done, Result holds the shard's final value and RunSharded skips the
// shard entirely on resume.
type ShardState struct {
	Index   int             `json:"index"`
	Done    bool            `json:"done"`
	Cursor  json.RawMessage `json:"cursor,omitempty"`
	Partial json.RawMessage `json:"partial,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Checkpoint is the resumable state of one sharded sweep point: a
// versioned, JSON-serializable record of which shards are done (with
// their results) and where the unfinished ones left off (their stream
// cursors). The identity fields pin the checkpoint to one (experiment,
// key, seed, shard count) — resuming under any other configuration is an
// error, because the derived RNG streams would not match.
//
// All mutating methods are safe for concurrent use by the shard jobs of
// a single RunSharded call. When an autosave path is set, every save
// atomically rewrites the file (temp file + rename), so a killed process
// leaves either the previous or the new checkpoint, never a torn one.
type Checkpoint struct {
	Version    int          `json:"version"`
	Experiment string       `json:"experiment"`
	Key        string       `json:"key"`
	Seed       uint64       `json:"seed"`
	Shards     []ShardState `json:"shards"`

	mu   sync.Mutex
	path string // autosave target; empty = in-memory only
}

// NewCheckpoint creates an empty checkpoint for a sweep point with the
// given identity and shard count.
func NewCheckpoint(experiment, key string, seed uint64, shards int) *Checkpoint {
	ck := &Checkpoint{
		Version:    CheckpointVersion,
		Experiment: experiment,
		Key:        key,
		Seed:       seed,
		Shards:     make([]ShardState, shards),
	}
	for i := range ck.Shards {
		ck.Shards[i].Index = i
	}
	return ck
}

// LoadCheckpoint reads a checkpoint file written by an autosave and arms
// autosaving back to the same path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load checkpoint: %w", err)
	}
	ck, err := parseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("engine: load checkpoint %s: %w", path, err)
	}
	ck.path = path
	return ck, nil
}

// parseCheckpoint decodes a checkpoint and rejects any shard record that
// no save writes: a done shard without a result (encoding/json would
// decode an absent or null result into a zero value, and the resume
// would merge it), an unfinished shard that carries a result, and a
// shard whose index is not its position.
func parseCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, err
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("version %d, want %d", ck.Version, CheckpointVersion)
	}
	for i, s := range ck.Shards {
		hasResult := len(s.Result) > 0 && !bytes.Equal(s.Result, []byte("null"))
		switch {
		case s.Index != i:
			return nil, fmt.Errorf("shard %d records index %d", i, s.Index)
		case s.Done && !hasResult:
			return nil, fmt.Errorf("shard %d is done but has no result", i)
		case !s.Done && len(s.Result) > 0:
			return nil, fmt.Errorf("shard %d is unfinished but has a result", i)
		}
	}
	return ck, nil
}

// LoadOrCreateCheckpoint resumes from path if a checkpoint exists there
// (validating it matches the requested identity) and otherwise creates a
// fresh one that will autosave to path.
func LoadOrCreateCheckpoint(path, experiment, key string, seed uint64, shards int) (*Checkpoint, error) {
	ck, err := LoadCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) {
		ck = NewCheckpoint(experiment, key, seed, shards)
		ck.path = path
		return ck, nil
	}
	if err != nil {
		return nil, err
	}
	if err := ck.compatible(experiment, key, seed, shards); err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

func (c *Checkpoint) compatible(experiment, key string, seed uint64, shards int) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.Experiment != experiment || c.Key != key {
		return fmt.Errorf("checkpoint is for %s/%s, want %s/%s",
			c.Experiment, c.Key, experiment, key)
	}
	if c.Seed != seed {
		return fmt.Errorf("checkpoint seed %d, want %d", c.Seed, seed)
	}
	if len(c.Shards) != shards {
		return fmt.Errorf("checkpoint has %d shards, want %d", len(c.Shards), shards)
	}
	return nil
}

func (c *Checkpoint) cursor(i int) json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Shards[i].Cursor
}

func (c *Checkpoint) result(i int) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Shards[i].Result, c.Shards[i].Done
}

func (c *Checkpoint) save(i int, cursor, partial any) error {
	craw, err := json.Marshal(cursor)
	if err != nil {
		return fmt.Errorf("engine: shard %d cursor: %w", i, err)
	}
	var praw json.RawMessage
	if partial != nil {
		if praw, err = json.Marshal(partial); err != nil {
			return fmt.Errorf("engine: shard %d partial: %w", i, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Shards[i].Cursor = craw
	c.Shards[i].Partial = praw
	return c.persistLocked()
}

func (c *Checkpoint) finish(i int, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("engine: shard %d result: %w", i, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Shards[i].Done = true
	c.Shards[i].Result = raw
	c.Shards[i].Cursor = nil
	c.Shards[i].Partial = nil
	return c.persistLocked()
}

// persistLocked atomically rewrites the autosave file, if one is armed.
func (c *Checkpoint) persistLocked() error {
	if c.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: marshal checkpoint: %w", err)
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	return nil
}
