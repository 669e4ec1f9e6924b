package device

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
)

// Shared model constants (the Agilio calibration), so the bus-DoS and
// contention numbers are comparable across models.
const (
	busOpCost      = 8
	watchdogCycles = 1 << 20
	accelOpCost    = 2000
)

// busSim gives every adapter Agilio-style watchdog semantics over its
// own arbiter: a request that waits past the watchdog hard-crashes the
// NIC, and every later op fails. Under a FIFO arbiter a flooding client
// starves the victim past the watchdog; under temporal partitioning no
// client can push another past it.
type busSim struct {
	tr      *bus.Tracker
	crashed bool
}

// newBusSim builds the model's arbiter for clients bus clients (at
// least two: an attacker and a victim).
func newBusSim(newArbiter func(clients int) bus.Arbiter, clients int) *busSim {
	clients = max(2, clients)
	return &busSim{tr: bus.NewTracker(newArbiter(clients), clients)}
}

func (b *busSim) op(client int, now uint64) (uint64, error) {
	if b.crashed {
		return 0, fmt.Errorf("device: NIC crashed; power cycle required")
	}
	start := b.tr.Request(client, now, busOpCost)
	if start-now > watchdogCycles {
		b.crashed = true
		return 0, fmt.Errorf("device: bus watchdog expired (waited %d cycles)", start-now)
	}
	return start + busOpCost, nil
}

// sharedAccel is a single accelerator unit with FIFO service — the
// commodity configuration whose queueing delay leaks co-tenant activity.
type sharedAccel struct {
	free uint64
}

func (s *sharedAccel) op(now uint64) (done, waited uint64) {
	start := now
	if s.free > start {
		start = s.free
	}
	s.free = start + accelOpCost
	return start + accelOpCost, start - now
}

// corePool hands out cores to launched functions on the commodity
// adapters (the S-NIC device keeps its own core table).
type corePool struct {
	owner []FuncID
}

func newCorePool(n int) *corePool { return &corePool{owner: make([]FuncID, n)} }

// pick validates mask against the pool (or, for mask 0, selects the
// lowest free core) without binding anything.
func (p *corePool) pick(mask uint64) (uint64, error) {
	if mask == 0 {
		for i := range p.owner {
			if p.owner[i] == mem.Free {
				mask = 1 << uint(i)
				break
			}
		}
		if mask == 0 {
			return 0, ErrNoCores
		}
	}
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if i >= len(p.owner) {
			return 0, fmt.Errorf("device: core %d does not exist", i)
		}
		if p.owner[i] != mem.Free {
			return 0, fmt.Errorf("device: core %d already bound to function %d", i, p.owner[i])
		}
	}
	return mask, nil
}

// bind assigns the cores in mask, as validated by pick, to id.
func (p *corePool) bind(id FuncID, mask uint64) {
	for i := range p.owner {
		if mask&(1<<uint(i)) != 0 {
			p.owner[i] = id
		}
	}
}

func (p *corePool) release(id FuncID) {
	for i := range p.owner {
		if p.owner[i] == id {
			p.owner[i] = mem.Free
		}
	}
}

func (p *corePool) free() int {
	n := 0
	for _, o := range p.owner {
		if o == mem.Free {
			n++
		}
	}
	return n
}

// steer picks the first function (in launch order) whose rules match the
// frame — the software analogue of the S-NIC switch, used by the
// commodity adapters that have no hardware steering.
func steer(order []FuncID, rules map[FuncID][]pktio.MatchSpec, frame []byte) (FuncID, error) {
	p, err := pkt.Parse(frame)
	if err != nil {
		return 0, err
	}
	for _, id := range order {
		for _, r := range rules[id] {
			if r.Matches(&p) {
				return id, nil
			}
		}
	}
	return 0, nil
}
