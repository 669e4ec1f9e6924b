package exp

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"snic/internal/engine"
	"snic/internal/trace"
)

// goldenReplayConfig is the scaled-down replay shape the golden suite
// and the worker-invariance sweep pin (full scale stays flag-gated
// behind `snicbench -scale full`).
func goldenReplayConfig() ReplayConfig {
	return ReplayConfig{Flows: 50000, PerFlow: 3, Shards: 4, Seed: 0xCA1DA}
}

func TestGoldenReplay(t *testing.T) {
	res, err := new(Runner).ReplayCAIDA(goldenReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "replay", RenderReplay(res).String())
}

// TestReplayShardedSerialEquivalence: the sharded decomposition is part
// of the experiment definition, so the equivalence that matters is
// serial-vs-parallel execution of the same decomposition — one worker
// walking shards in order must render byte-identically to a full pool.
func TestReplayShardedSerialEquivalence(t *testing.T) {
	cfg := goldenReplayConfig()
	serial := &Runner{Workers: 1}
	parallel := &Runner{Workers: 8}
	a, err := serial.ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serial and parallel sharded replays differ")
	}
	if got, want := RenderReplay(a).String(), RenderReplay(b).String(); got != want {
		t.Fatal("rendered replays differ")
	}
	if a.Flows != cfg.Flows || a.Packets != cfg.Flows*uint64(cfg.PerFlow) {
		t.Fatalf("merged totals %d flows / %d packets, want %d / %d",
			a.Flows, a.Packets, cfg.Flows, cfg.Flows*uint64(cfg.PerFlow))
	}
}

// TestReplayCheckpointResume interrupts the replay at several per-run
// packet budgets — each attempt a "fresh process" that only sees the
// checkpoint file — and demands the final merged result be
// byte-identical to an uninterrupted run. The second shape is the
// benchmark's: 50 packets per flow over shards longer than
// checkpointEvery, so the 64 Ki save (1,310 flows and 36 packets) and
// every stop below fall inside a flow. Each uninterrupted digest is
// pinned, so a change that moves every run alike still fails.
func TestReplayCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		cfg    ReplayConfig
		stops  []uint64
		digest uint64
	}{
		{ReplayConfig{Flows: 6000, PerFlow: 3, Shards: 3, Seed: 0xCA1DA}, []uint64{1, 777, 5000}, 0x6c7d1bfbb23e988e},
		{ReplayConfig{Flows: 3000, PerFlow: 50, Shards: 2, Seed: 0xCA1DA}, []uint64{7_777, 40_001}, 0x883098350bc4ebea},
	} {
		cfg := tc.cfg
		want, err := new(Runner).ReplayCAIDA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Digest != tc.digest {
			t.Fatalf("%s: uninterrupted digest %016x, want %016x", cfg.key(), want.Digest, tc.digest)
		}
		wantText := RenderReplay(want).String()
		for _, stop := range tc.stops {
			icfg := cfg
			icfg.CheckpointPath = filepath.Join(t.TempDir(), "replay.ckpt")
			icfg.StopAfter = stop
			var got ReplayResult
			for attempt := 0; ; attempt++ {
				if attempt > 20000 {
					t.Fatalf("%s stop=%d: did not converge", cfg.key(), stop)
				}
				got, err = new(Runner).ReplayCAIDA(icfg)
				if errors.Is(err, engine.ErrInterrupted) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			// The config rides inside the result; compare everything else.
			got.Config, want.Config = ReplayConfig{}, ReplayConfig{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s stop=%d: resumed result differs from uninterrupted run", cfg.key(), stop)
			}
			want.Config = cfg
			got.Config = cfg
			if RenderReplay(got).String() != wantText {
				t.Fatalf("%s stop=%d: rendered output differs", cfg.key(), stop)
			}
		}
	}
}

// cursorReplayConfig is the shape the cursor tests interrupt: -scale
// small's 3 packets per flow, two shards of 400 flows, stopped after
// 1,000 packets per shard (one packet into flow 334).
var cursorReplayConfig = ReplayConfig{Flows: 800, PerFlow: 3, Shards: 2, Seed: 0xCA1DA}

// interruptedCheckpoint returns the checkpoint file a -stop-after run of
// cursorReplayConfig leaves behind.
func interruptedCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	cfg := cursorReplayConfig
	cfg.CheckpointPath = filepath.Join(tb.TempDir(), "replay.ckpt")
	cfg.StopAfter = 1000
	if _, err := new(Runner).ReplayCAIDA(cfg); !errors.Is(err, engine.ErrInterrupted) {
		tb.Fatalf("stop-after run returned %v, want an interrupt", err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// resumeWithCursor replaces shard 0's cursor in ckpt with a JSON value
// and resumes the replay from the edited file.
func resumeWithCursor(tb testing.TB, ckpt, cursor []byte) (ReplayResult, error) {
	tb.Helper()
	var ck engine.Checkpoint
	if err := json.Unmarshal(ckpt, &ck); err != nil {
		tb.Fatal(err)
	}
	ck.Shards[0].Cursor = cursor
	data, err := json.Marshal(&ck)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cursorReplayConfig
	cfg.CheckpointPath = filepath.Join(tb.TempDir(), "replay.ckpt")
	if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return new(Runner).ReplayCAIDA(cfg)
}

// TestReplayRejectsInconsistentCursor edits one counter of shard 0's
// saved cursor at a time. Each edit leaves a cursor whose stream still
// seeks, but whose counters no longer describe that stream's position;
// the resume must refuse it and name the shard rather than merge wrong
// totals.
func TestReplayRejectsInconsistentCursor(t *testing.T) {
	ckpt := interruptedCheckpoint(t)
	var ck engine.Checkpoint
	if err := json.Unmarshal(ckpt, &ck); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*replayCursor){
		"packets":     func(c *replayCursor) { c.Packets++ },
		"flows":       func(c *replayCursor) { c.Flows-- },
		"model flows": func(c *replayCursor) { c.Model.Flows++ },
	} {
		var cur replayCursor
		if err := json.Unmarshal(ck.Shards[0].Cursor, &cur); err != nil {
			t.Fatal(err)
		}
		edit(&cur)
		raw, err := json.Marshal(cur)
		if err != nil {
			t.Fatal(err)
		}
		res, err := resumeWithCursor(t, ckpt, raw)
		if err == nil {
			t.Errorf("%s: resume accepted the cursor and merged %d flows, %d packets", name, res.Flows, res.Packets)
			continue
		}
		if !strings.Contains(err.Error(), "shard 0") {
			t.Errorf("%s: error %q does not name shard 0", name, err)
		}
	}
}

// FuzzReplayCursor mutates shard 0's cursor in a real -stop-after
// checkpoint (seeds under testdata/fuzz/FuzzReplayCursor) and resumes.
// The resume must not panic, and it must either fail or report every
// shard's exact share of flows and packets.
func FuzzReplayCursor(f *testing.F) {
	ckpt := interruptedCheckpoint(f)
	f.Fuzz(func(t *testing.T, cursor []byte) {
		if !json.Valid(cursor) {
			return // no save writes it, and LoadCheckpoint refuses the file
		}
		res, err := resumeWithCursor(t, ckpt, cursor)
		if err != nil {
			return
		}
		cfg := cursorReplayConfig
		for _, sh := range res.Shards {
			share := trace.ShardShare(cfg.Flows, sh.Shard, cfg.Shards)
			if sh.Flows != share || sh.Packets != share*uint64(cfg.PerFlow) {
				t.Fatalf("shard %d resumed to %d flows, %d packets; want %d, %d\n%s",
					sh.Shard, sh.Flows, sh.Packets, share, share*uint64(cfg.PerFlow), cursor)
			}
		}
	})
}

// TestReplayFullScaleSmokeBoundedHeap is the CI smoke form of the
// full-scale claim: >= 1 M flows streamed under a bounded-heap
// assertion. Materializing the flows would need >= 29 MB for the tuples
// alone (1.2 M x 24 B) plus the monitor's table; the streaming replay
// must stay within a few MB of steady heap.
func TestReplayFullScaleSmokeBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale smoke skipped in -short")
	}
	cfg := ReplayConfig{Flows: 1_200_000, PerFlow: 1, Shards: 8, Seed: 0xCA1DA}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := new(Runner).ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Flows != cfg.Flows || res.Packets != cfg.Flows {
		t.Fatalf("merged %d flows / %d packets, want %d each", res.Flows, res.Packets, cfg.Flows)
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 8<<20 {
		t.Fatalf("replay retained %d bytes of heap (bound 8 MiB)", retained)
	}
	// Cumulative allocation must also be flow-count independent: the
	// generators reuse their state, so total churn stays far below what
	// per-packet slices would cost (>= 28 B x 1.2 M packets).
	if churn := after.TotalAlloc - before.TotalAlloc; churn > 16<<20 {
		t.Fatalf("replay allocated %d bytes total (bound 16 MiB)", churn)
	}
	// The trajectory must show the paper's phenomenon at this scale:
	// every shard resized its table repeatedly on the way to 150 k flows.
	for _, sh := range res.Shards {
		if sh.Resizes < 5 {
			t.Fatalf("shard %d resized only %d times", sh.Shard, sh.Resizes)
		}
	}
}
