// Streaming trace positions. A CAIDAStream's position is a serializable
// Cursor: Seek(Cursor()) restores the generator exactly, so a replay can
// be checkpointed mid-window and resumed byte-identically (the engine's
// sharded runner builds on this).
package trace

import (
	"encoding/json"
	"fmt"

	"snic/internal/pkt"
	"snic/internal/sim"
)

// CursorVersion is the serialization version stamped into every Cursor.
const CursorVersion = 1

// Cursor is a serializable stream position. Version and Kind guard
// against resuming a checkpoint onto a different generator; Data holds
// the kind-specific state (RNG states, counters, the in-flight tuple).
// Everything round-trips through JSON without loss — all fields are
// integers or exact-round-trip structs — so a decoded cursor resumes the
// stream byte-identically.
type Cursor struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Pos     uint64          `json:"pos"`
	Data    json.RawMessage `json:"data"`
}

func (c Cursor) check(kind string) error {
	if c.Version != CursorVersion {
		return fmt.Errorf("trace: cursor version %d, want %d", c.Version, CursorVersion)
	}
	if c.Kind != kind {
		return fmt.Errorf("trace: cursor kind %q, want %q", c.Kind, kind)
	}
	return nil
}

func makeCursor(kind string, pos uint64, data any) Cursor {
	raw, err := json.Marshal(data)
	if err != nil {
		// All cursor payloads are plain structs of integers; Marshal
		// cannot fail on them. Panic rather than return a corrupt cursor.
		panic("trace: cursor marshal: " + err.Error())
	}
	return Cursor{Version: CursorVersion, Kind: kind, Pos: pos, Data: raw}
}

type caidaCursor struct {
	RngState   uint64        `json:"rng_state"`
	Elapsed    float64       `json:"elapsed"`
	Target     uint64        `json:"target"`
	TotalFlows uint64        `json:"total_flows"`
	PerFlow    int           `json:"per_flow"`
	Remaining  int           `json:"remaining"`
	CurIdx     int           `json:"cur_idx"`
	Cur        pkt.FiveTuple `json:"cur"`
}

// Cursor captures the arrival process mid-flow: RNG state, horizon,
// counters, and the in-flight tuple with its remaining repeat count.
func (c *CAIDAStream) Cursor() Cursor {
	return makeCursor("caida", c.pos, caidaCursor{
		RngState:   c.rng.State(),
		Elapsed:    c.elapsed,
		Target:     c.target,
		TotalFlows: c.totalFlows,
		PerFlow:    c.perFlow,
		Remaining:  c.remaining,
		CurIdx:     c.curIdx,
		Cur:        c.cur,
	})
}

// Seek restores a position captured by Cursor: the next Next call yields
// exactly the packet the captured stream would have yielded. The cursor
// must come from a stream with this stream's horizon (same budget and
// per-flow count, or the same Advance history), and its counters must
// describe a position that Next can reach. A cursor that fails either
// check is rejected before anything changes, so the stream stays where
// it was.
func (c *CAIDAStream) Seek(cur Cursor) error {
	if err := cur.check("caida"); err != nil {
		return err
	}
	var cc caidaCursor
	if err := json.Unmarshal(cur.Data, &cc); err != nil {
		return fmt.Errorf("trace: caida cursor: %w", err)
	}
	if cc.Elapsed != c.elapsed || cc.Target != c.target || cc.PerFlow != c.perFlow {
		return fmt.Errorf("trace: caida cursor is for horizon (%g s, %d flows, %d per flow), stream has (%g s, %d flows, %d per flow)",
			cc.Elapsed, cc.Target, cc.PerFlow, c.elapsed, c.target, c.perFlow)
	}
	if err := cc.validPosition(cur.Pos); err != nil {
		return err
	}
	c.rng.SetState(cc.RngState)
	c.totalFlows = cc.TotalFlows
	c.remaining = cc.Remaining
	c.curIdx = cc.CurIdx
	c.cur = cc.Cur
	c.pos = cur.Pos
	return nil
}

// validPosition reports whether Next can reach the cursor's counters:
// no more flows than the horizon holds, the in-flight flow is the last
// one emitted with at most PerFlow packets left, and every emitted flow
// has yielded at least one packet. (An Advance that lowers the per-flow
// count mid-flow leaves more packets in flight than the new count; such
// a cursor is refused until that flow drains. No caller does this:
// budget streams never change the count.) A budget stream, the one
// kind never Advanced (elapsed 0), keeps one per-flow count for life,
// so its position is exact: every flow before the in-flight one yielded
// PerFlow packets and the in-flight one yielded PerFlow-Remaining > 0.
func (cc caidaCursor) validPosition(pos uint64) error {
	switch {
	case cc.TotalFlows > cc.Target:
		return fmt.Errorf("trace: caida cursor has %d flows past a %d-flow horizon", cc.TotalFlows, cc.Target)
	case cc.Remaining < 0 || cc.Remaining > cc.PerFlow:
		return fmt.Errorf("trace: caida cursor has %d packets left of a %d-packet flow", cc.Remaining, cc.PerFlow)
	case cc.TotalFlows == 0 && (cc.CurIdx != 0 || cc.Remaining != 0):
		return fmt.Errorf("trace: caida cursor has flow %d in flight before any flow", cc.CurIdx)
	case cc.TotalFlows > 0 && (cc.CurIdx < 0 || uint64(cc.CurIdx) != cc.TotalFlows-1):
		return fmt.Errorf("trace: caida cursor has flow %d in flight after %d flows", cc.CurIdx, cc.TotalFlows)
	case pos < cc.TotalFlows:
		return fmt.Errorf("trace: caida cursor at packet %d after %d flows", pos, cc.TotalFlows)
	case cc.Elapsed == 0 && (pos != cc.TotalFlows*uint64(cc.PerFlow)-uint64(cc.Remaining) ||
		cc.TotalFlows > 0 && cc.Remaining == cc.PerFlow):
		return fmt.Errorf("trace: caida cursor at packet %d, but %d flows of %d packets with %d left",
			pos, cc.TotalFlows, cc.PerFlow, cc.Remaining)
	}
	return nil
}

// CAIDAShard returns shard i of k over a CAIDA window of totalFlows
// flows: an independent budget stream covering this shard's slice of the
// flow population (flows split as evenly as possible, earlier shards
// taking the remainder), seeded with sim.DeriveSeed(base, label, "s<i>")
// so the shard's draws depend only on its identity, never on scheduling.
func CAIDAShard(base uint64, label string, i, k int, totalFlows uint64, perFlow int) *CAIDAStream {
	if k < 1 || i < 0 || i >= k {
		panic("trace: CAIDAShard index out of range")
	}
	return NewCAIDABudget(
		sim.DeriveRand(base, label, fmt.Sprintf("s%03d", i)),
		ShardShare(totalFlows, i, k),
		perFlow,
	)
}

// ShardShare returns shard i's flow count when total flows are split
// across k shards: total/k each, with the first total%k shards taking
// one extra so every flow is covered exactly once.
func ShardShare(total uint64, i, k int) uint64 {
	share := total / uint64(k)
	if uint64(i) < total%uint64(k) {
		share++
	}
	return share
}
