package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// savedCheckpoints returns the bytes of two real checkpoint files of the
// sumSpec sweep: one whose shards all finished, and one interrupted
// part-way, with saved cursors and no results yet.
func savedCheckpoints(t testing.TB) (finished, interrupted []byte) {
	t.Helper()
	read := func(stopAfter int) []byte {
		path := filepath.Join(t.TempDir(), "ck.json")
		ck, err := LoadOrCreateCheckpoint(path, "shardtest", "sum", 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = RunSharded(Config{Workers: 1, Seed: 7}, ck, sumSpec(3, 20, stopAfter))
		if stopAfter > 0 && !errors.Is(err, ErrInterrupted) || stopAfter == 0 && err != nil {
			t.Fatalf("stopAfter=%d: %v", stopAfter, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return read(0), read(5)
}

// forgedCheckpoints edits a finished checkpoint into each shard record
// that no save writes.
func forgedCheckpoints(t testing.TB, finished []byte) map[string][]byte {
	t.Helper()
	forge := func(edit func(s *ShardState)) []byte {
		var ck Checkpoint
		if err := json.Unmarshal(finished, &ck); err != nil {
			t.Fatal(err)
		}
		edit(&ck.Shards[1])
		data, err := json.Marshal(&ck)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return map[string][]byte{
		"done, result null":   forge(func(s *ShardState) { s.Result = json.RawMessage("null") }),
		"done, result absent": forge(func(s *ShardState) { s.Result = nil }),
		"unfinished, result":  forge(func(s *ShardState) { s.Done = false }),
		"index out of place":  forge(func(s *ShardState) { s.Index = 2 }),
	}
}

// TestLoadCheckpointRejectsForgedShards: a checkpoint edited so that a
// done shard has a null or absent result would resume as a zero result
// merged into the sweep, and exit 0. Loading must refuse it, and every
// other shard record no save writes.
func TestLoadCheckpointRejectsForgedShards(t *testing.T) {
	finished, _ := savedCheckpoints(t)
	if !bytes.Contains(finished, []byte(`"result"`)) {
		t.Fatalf("finished checkpoint has no results:\n%s", finished)
	}
	for name, data := range forgedCheckpoints(t, finished) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadOrCreateCheckpoint(path, "shardtest", "sum", 7, 3); err == nil {
			t.Errorf("%s: forged checkpoint accepted", name)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder. It
// must never panic, and a checkpoint it accepts must marshal to a file
// that loads to the same state.
func FuzzLoadCheckpoint(f *testing.F) {
	finished, interrupted := savedCheckpoints(f)
	f.Add(finished)
	f.Add(interrupted)
	for _, data := range forgedCheckpoints(f, finished) {
		f.Add(data)
	}
	f.Add([]byte(`{"version": 99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(ck)
		if err != nil {
			t.Fatalf("marshal accepted checkpoint: %v", err)
		}
		again, err := parseCheckpoint(out)
		if err != nil {
			t.Fatalf("re-marshalled checkpoint rejected: %v\n%s", err, out)
		}
		if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
			t.Fatalf("state changed across a round trip:\n%s\n%s", out, out2)
		}
		if strings.Contains(string(out), `"result":null`) {
			t.Fatalf("accepted a null result:\n%s", out)
		}
	})
}
