package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shardCursor / shardResult model a resumable shard computation for the
// tests: consume a per-shard number of RNG draws, folding them into a
// sum, with the cursor carrying (items done, running sum, RNG state).
type shardCursor struct {
	Done int    `json:"done"`
	Sum  uint64 `json:"sum"`
	Rng  uint64 `json:"rng"`
}

type shardResult struct {
	Shard int    `json:"shard"`
	Sum   uint64 `json:"sum"`
}

// sumSpec builds a ShardedSpec whose shards each fold a fixed number of
// draws. stopAfter > 0 interrupts each shard after that many draws in
// one invocation (the checkpoint-resume tests' deliberate kill).
func sumSpec(shards, itemsPerShard, stopAfter int) ShardedSpec[shardResult] {
	return ShardedSpec[shardResult]{
		Experiment: "shardtest",
		Key:        "sum",
		Shards:     shards,
		Run: func(s *Shard) (shardResult, error) {
			var cur shardCursor
			if raw := s.Cursor(); raw != nil {
				if err := json.Unmarshal(raw, &cur); err != nil {
					return shardResult{}, err
				}
				s.Rng.SetState(cur.Rng)
			}
			processed := 0
			for cur.Done < itemsPerShard {
				cur.Sum += s.Rng.Uint64() % 1000
				cur.Done++
				processed++
				if cur.Done%7 == 0 {
					cur.Rng = s.Rng.State()
					if err := s.Save(cur, nil); err != nil {
						return shardResult{}, err
					}
				}
				if stopAfter > 0 && processed >= stopAfter && cur.Done < itemsPerShard {
					cur.Rng = s.Rng.State()
					if err := s.Save(cur, nil); err != nil {
						return shardResult{}, err
					}
					return shardResult{}, ErrInterrupted
				}
			}
			return shardResult{Shard: s.Index, Sum: cur.Sum}, nil
		},
	}
}

func TestRunShardedWorkerInvariance(t *testing.T) {
	var want []shardResult
	for _, workers := range []int{1, 4, 16} {
		got, _, err := RunSharded(Config{Workers: workers, Seed: 99}, nil, sumSpec(9, 40, 0))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r.Shard != i {
				t.Fatalf("workers=%d: result %d is shard %d (merge out of order)", workers, i, r.Shard)
			}
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestRunShardedResumesByteIdentically(t *testing.T) {
	want, _, err := RunSharded(Config{Workers: 4, Seed: 7}, nil, sumSpec(5, 50, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAfter := range []int{1, 13, 49} {
		path := filepath.Join(t.TempDir(), "ck.json")
		for attempt := 0; ; attempt++ {
			if attempt > 60 {
				t.Fatalf("stopAfter=%d: did not converge", stopAfter)
			}
			// A fresh checkpoint load each attempt simulates a new process
			// resuming after a kill: nothing survives but the file.
			ck, err := LoadOrCreateCheckpoint(path, "shardtest", "sum", 7, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RunSharded(Config{Workers: 4, Seed: 7}, ck, sumSpec(5, 50, stopAfter))
			if errors.Is(err, ErrInterrupted) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stopAfter=%d: resumed results differ from uninterrupted run", stopAfter)
			}
			break
		}
	}
}

// done reports whether every shard of ck has a final result.
func done(ck *Checkpoint) bool {
	for _, sh := range ck.Shards {
		if !sh.Done {
			return false
		}
	}
	return true
}

func TestRunShardedSkipsDoneShards(t *testing.T) {
	ck := NewCheckpoint("shardtest", "sum", 3, 4)
	spec := sumSpec(4, 20, 0)
	want, _, err := RunSharded(Config{Workers: 2, Seed: 3}, ck, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !done(ck) {
		t.Fatal("checkpoint not done after full run")
	}
	spec.Run = func(*Shard) (shardResult, error) {
		t.Fatal("done shard was re-run")
		return shardResult{}, nil
	}
	got, _, err := RunSharded(Config{Workers: 2, Seed: 3}, ck, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed results differ from recorded ones")
	}
}

func TestRunShardedRealErrorBeatsInterrupted(t *testing.T) {
	boom := errors.New("boom")
	spec := ShardedSpec[int]{
		Experiment: "shardtest", Key: "err", Shards: 3,
		Run: func(s *Shard) (int, error) {
			if s.Index == 1 {
				return 0, boom
			}
			return 0, ErrInterrupted
		},
	}
	_, _, err := RunSharded(Config{Workers: 3, Seed: 1}, nil, spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure", err)
	}
	if errors.Is(err, ErrInterrupted) {
		t.Fatal("real failure misreported as interruption")
	}
}

func TestCheckpointCompatibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := LoadOrCreateCheckpoint(path, "shardtest", "sum", 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSharded(Config{Workers: 1, Seed: 7}, ck, sumSpec(5, 3, 0)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		exp, key string
		seed     uint64
		shards   int
	}{
		{"other", "sum", 7, 5},
		{"shardtest", "other", 7, 5},
		{"shardtest", "sum", 8, 5},
		{"shardtest", "sum", 7, 6},
	}
	for _, c := range cases {
		if _, err := LoadOrCreateCheckpoint(path, c.exp, c.key, c.seed, c.shards); err == nil {
			t.Fatalf("accepted mismatched checkpoint %+v", c)
		}
	}
	loaded, err := LoadOrCreateCheckpoint(path, "shardtest", "sum", 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !done(loaded) {
		t.Fatal("loaded checkpoint lost its results")
	}
	// The autosave must be atomic: no stale temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestCheckpointVersionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("accepted future checkpoint version")
	}
}
