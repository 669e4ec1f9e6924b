package exp

import (
	"reflect"
	"testing"
	"time"

	"snic/internal/obs"
)

// TestReplayPublishesProgress: a replay with a progress collector
// reports the window identity, a packet target of flows×perflow, every
// drawn packet via the stream-position hook, and checkpoint saves —
// and attaching the collector does not perturb results. Each shard draws
// 70,000 packets, so it crosses one checkpointEvery save.
func TestReplayPublishesProgress(t *testing.T) {
	cfg := ReplayConfig{Flows: 70000, PerFlow: 3, Shards: 3, Seed: 0xCA1DA}
	tick := time.Unix(0, 0)
	p := obs.NewProgress(obs.NewWall(func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	}))
	r := &Runner{Workers: 2, Progress: p}
	res, err := r.ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Experiment != "replay" {
		t.Fatalf("experiment = %q", s.Experiment)
	}
	if s.ItemsTotal != cfg.Flows*uint64(cfg.PerFlow) {
		t.Fatalf("target = %d, want %d", s.ItemsTotal, cfg.Flows*uint64(cfg.PerFlow))
	}
	if s.Items != res.Packets {
		t.Fatalf("items = %d, want the %d packets the replay drew", s.Items, res.Packets)
	}
	if s.JobsDone != cfg.Shards || s.Active {
		t.Fatalf("shards done = %d active=%v, want %d done inactive", s.JobsDone, s.Active, cfg.Shards)
	}
	if s.SinceSaveSec < 0 {
		t.Fatal("no checkpoint save observed")
	}

	bare, err := (&Runner{Workers: 2}).ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, bare) {
		t.Fatal("replay results change when a progress collector is attached")
	}
}
