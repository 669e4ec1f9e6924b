// Package bus models the smart NIC's internal IO bus and the arbitration
// disciplines compared in the paper:
//
//   - FIFO: the commodity baseline — first-come-first-served with no
//     trusted arbiter. A hostile client can saturate the bus (the Agilio
//     DoS attack of §3.3) and any client can sense others' load through
//     its own queueing delay (a timing side channel).
//   - RoundRobin: work-conserving fair sharing. Fixes starvation but still
//     leaks: a client's grant time depends on whether other domains are
//     requesting.
//   - Temporal: S-NIC's choice (§4.5) — time is divided into fixed epochs
//     owned by one security domain each, with a "dead time" tail in which
//     no new operation may issue so in-flight operations drain before the
//     epoch boundary. Grant times depend only on the requester's own
//     history, eliminating bus-contention side channels at the price of
//     idle slots (the <5% computational slowdown cited from Wang et al.).
//
// Arbiters are driven in simulated cycle time by the CPU/accelerator
// models: Request(domain, now, dur) returns the cycle at which the
// transaction may begin; it completes at start+dur.
package bus

import (
	"fmt"
	"strconv"

	"snic/internal/obs"
)

// Arbiter grants bus access.
type Arbiter interface {
	// Request asks for the bus on behalf of domain at cycle now for a
	// transaction lasting dur cycles. It returns the start cycle
	// (>= now). Implementations must be monotone in now per domain.
	Request(domain int, now uint64, dur uint64) uint64
	// Reset clears internal state (e.g. between warmup and measurement).
	Reset()
	// Name identifies the discipline for reports.
	Name() string
	// Config names the discipline and every parameter that shapes its
	// grants, e.g. "temporal n=2 epoch=60 dead=10": two arbiters with
	// equal Configs grant identically from reset, so results computed
	// under one may be reused for the other.
	Config() string
}

// Stats tracks per-domain bus usage.
type Stats struct {
	Transactions uint64
	WaitCycles   uint64
}

// Tracker wraps an Arbiter with per-domain statistics.
type Tracker struct {
	Arbiter
	stats []Stats
	// temporal caches the comma-ok downcast done once at construction, so
	// the dead-time accounting below can never panic on a non-Temporal
	// arbiter with observability attached. Arbiter must not be swapped
	// after NewTracker.
	temporal *Temporal
	// obs handles, indexed by domain; nil until Observe attaches a
	// collector. dead is populated only when the wrapped arbiter is
	// *Temporal (dead time is that discipline's defining cost).
	obsGrants, obsBusy, obsStall, obsDead []*obs.Counter
}

// NewTracker wraps arb, tracking domains many domains.
func NewTracker(arb Arbiter, domains int) *Tracker {
	t := &Tracker{Arbiter: arb, stats: make([]Stats, domains)}
	t.temporal, _ = arb.(*Temporal)
	return t
}

// Observe attaches per-domain grant/busy/stall counters to reg under
// the given device label (component "bus/<discipline>"). When the
// wrapped arbiter is *Temporal, a dead_time_cycles counter additionally
// charges each stall for the share spent inside dead-time tails. A nil
// reg leaves the tracker detached.
func (t *Tracker) Observe(reg *obs.Registry, device string) {
	if reg == nil {
		return
	}
	component := "bus/" + t.Arbiter.Name()
	n := len(t.stats)
	t.obsGrants = make([]*obs.Counter, n)
	t.obsBusy = make([]*obs.Counter, n)
	t.obsStall = make([]*obs.Counter, n)
	temporal := t.temporal != nil
	if temporal {
		t.obsDead = make([]*obs.Counter, n)
	}
	for d := 0; d < n; d++ {
		owner := "dom" + strconv.Itoa(d)
		t.obsGrants[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "grants"})
		t.obsBusy[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "busy_cycles"})
		t.obsStall[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "stall_cycles"})
		if temporal {
			t.obsDead[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "dead_time_cycles"})
		}
	}
}

// Request forwards to the wrapped arbiter and records wait/busy cycles.
func (t *Tracker) Request(domain int, now, dur uint64) uint64 {
	start := t.Arbiter.Request(domain, now, dur)
	s := &t.stats[domain]
	s.Transactions++
	s.WaitCycles += start - now
	if t.obsGrants != nil {
		t.obsGrants[domain].Inc()
		t.obsBusy[domain].Add(dur)
		t.obsStall[domain].Add(start - now)
		if t.obsDead != nil {
			t.obsDead[domain].Add(t.temporal.DeadOverlap(now, start))
		}
	}
	return start
}

// Stats returns the accumulated statistics for domain.
func (t *Tracker) Stats(domain int) Stats { return t.stats[domain] }

// Reset clears arbiter state and statistics.
func (t *Tracker) Reset() {
	t.Arbiter.Reset()
	for i := range t.stats {
		t.stats[i] = Stats{}
	}
}

// ---------------------------------------------------------------------------

// FIFO is the unarbitrated baseline: one shared queue, no reservations.
type FIFO struct {
	nextFree uint64
}

// NewFIFO returns a FIFO arbiter.
func NewFIFO() *FIFO { return &FIFO{} }

// Request implements Arbiter.
func (f *FIFO) Request(_ int, now, dur uint64) uint64 {
	start := now
	if f.nextFree > start {
		start = f.nextFree
	}
	f.nextFree = start + dur
	return start
}

// Reset implements Arbiter.
func (f *FIFO) Reset() { f.nextFree = 0 }

// Name implements Arbiter.
func (f *FIFO) Name() string { return "fifo" }

// Config implements Arbiter: FIFO has no parameters.
func (f *FIFO) Config() string { return "fifo" }

// ---------------------------------------------------------------------------

// RoundRobin is budgeted fair sharing: bus time is divided into accounting
// windows, and within each window a domain may consume at most its 1/N
// share of cycles. Excess demand spills into later windows. This stops the
// §3.3 bus-DoS attack (no domain can starve the others), but unlike
// temporal partitioning it is still leaky: a domain's start offset within
// a window depends on how much the other domains have already used it.
type RoundRobin struct {
	domains int
	window  uint64
	wins    map[uint64]*winState
}

type winState struct {
	total uint64   // cycles committed in this window
	used  []uint64 // per-domain cycles committed
}

// NewRoundRobin returns a budgeted round-robin arbiter over n domains with
// the given accounting window (cycles).
func NewRoundRobin(n int, window uint64) *RoundRobin {
	if n <= 0 || window == 0 {
		panic("bus: bad round-robin config")
	}
	return &RoundRobin{domains: n, window: window, wins: make(map[uint64]*winState)}
}

func (r *RoundRobin) win(idx uint64) *winState {
	ws, ok := r.wins[idx]
	if !ok {
		ws = &winState{used: make([]uint64, r.domains)}
		r.wins[idx] = ws
	}
	return ws
}

// Request implements Arbiter.
func (r *RoundRobin) Request(domain int, now, dur uint64) uint64 {
	share := r.window / uint64(r.domains)
	if dur > share {
		panic(fmt.Sprintf("bus: transaction of %d cycles exceeds per-window share %d", dur, share))
	}
	for w := now / r.window; ; w++ {
		ws := r.win(w)
		if ws.used[domain]+dur > share {
			continue // this domain's budget here is spent
		}
		offset := ws.total
		if w == now/r.window && now%r.window > offset {
			// The bus was idle between the last commitment and now.
			offset = now % r.window
		}
		if offset+dur > r.window {
			continue // window is full
		}
		ws.total = offset + dur
		ws.used[domain] += dur
		return w*r.window + offset
	}
}

// Reset implements Arbiter.
func (r *RoundRobin) Reset() { r.wins = make(map[uint64]*winState) }

// Name implements Arbiter.
func (r *RoundRobin) Name() string { return "round-robin" }

// Config implements Arbiter.
func (r *RoundRobin) Config() string {
	return fmt.Sprintf("round-robin n=%d window=%d", r.domains, r.window)
}

// ---------------------------------------------------------------------------

// Temporal implements the temporal-partitioning arbiter of §4.5 (after
// Wang et al. [119]): fixed epochs assigned round-robin to domains; a
// domain may only issue in its own epoch, and only during the first
// (Epoch - DeadTime) cycles so every transaction drains before the next
// epoch begins.
type Temporal struct {
	domains  int
	epoch    uint64
	deadTime uint64
	// nextFree is tracked per domain: transactions never cross epochs and
	// epochs have a single owner, so the only serialization a domain ever
	// experiences is against its own earlier transactions. This is the
	// mechanism behind the non-interference guarantee.
	nextFree []uint64
}

// NewTemporal builds a temporal-partitioning arbiter. epoch is the slot
// length in cycles; deadTime is the no-new-issue tail. deadTime must be
// shorter than epoch and at least as long as the longest transaction the
// callers will issue (otherwise a transaction could cross its epoch
// boundary; Request panics if it would).
func NewTemporal(domains int, epoch, deadTime uint64) *Temporal {
	if domains <= 0 || epoch == 0 || deadTime >= epoch {
		panic(fmt.Sprintf("bus: bad temporal config domains=%d epoch=%d dead=%d",
			domains, epoch, deadTime))
	}
	return &Temporal{domains: domains, epoch: epoch, deadTime: deadTime,
		nextFree: make([]uint64, domains)}
}

// epochOwner returns the domain owning the epoch containing cycle t.
func (tp *Temporal) epochOwner(t uint64) int {
	return int((t / tp.epoch) % uint64(tp.domains))
}

// Request implements Arbiter.
func (tp *Temporal) Request(domain int, now, dur uint64) uint64 {
	if dur > tp.deadTime {
		panic(fmt.Sprintf("bus: transaction of %d cycles exceeds dead time %d", dur, tp.deadTime))
	}
	t := now
	if tp.nextFree[domain] > t {
		t = tp.nextFree[domain]
	}
	for {
		epochStart := (t / tp.epoch) * tp.epoch
		issueDeadline := epochStart + tp.epoch - tp.deadTime
		// New operations may only issue before the dead-time tail; since
		// dur <= deadTime, anything issued by then also completes inside
		// the epoch, which is the whole point of the dead time.
		if tp.epochOwner(t) == domain && t < issueDeadline {
			tp.nextFree[domain] = t + dur
			return t
		}
		// Jump to the start of this domain's next epoch.
		cur := t / tp.epoch
		owner := int(cur % uint64(tp.domains))
		delta := (uint64(domain) + uint64(tp.domains) - uint64(owner)) % uint64(tp.domains)
		if delta == 0 {
			delta = uint64(tp.domains)
		}
		t = (cur + delta) * tp.epoch
	}
}

// Reset implements Arbiter.
func (tp *Temporal) Reset() {
	for i := range tp.nextFree {
		tp.nextFree[i] = 0
	}
}

// Name implements Arbiter.
func (tp *Temporal) Name() string { return "temporal" }

// Config implements Arbiter.
func (tp *Temporal) Config() string {
	return fmt.Sprintf("temporal n=%d epoch=%d dead=%d", tp.domains, tp.epoch, tp.deadTime)
}

// DeadOverlap returns how many cycles of the half-open interval
// [from, to) fall inside dead-time tails — the part of a stall that is
// the discipline's enforced idle rather than queueing behind work.
func (tp *Temporal) DeadOverlap(from, to uint64) uint64 {
	var total uint64
	for e := from / tp.epoch; ; e++ {
		tailStart := e*tp.epoch + tp.epoch - tp.deadTime
		if tailStart >= to {
			return total
		}
		lo, hi := tailStart, (e+1)*tp.epoch
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
}
