package device

import (
	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/pktio"
)

// commFunc is the per-function bookkeeping the commodity adapters keep
// in software (there is no trusted hardware tracking it, which is rather
// the point).
type commFunc struct {
	name     string
	region   mem.Range
	bytes    uint64
	rules    []pktio.MatchSpec
	frames   []frameRef
	frameOff uint64 // next free slot in the region's RX staging area
}

// frameRef locates one delivered frame in device memory.
type frameRef struct {
	addr mem.Addr
	n    int
}

// commBase carries the bookkeeping all three commodity adapters share:
// function table, launch order (steering precedence), core pool, and the
// shared bus/accelerator substrates. The adapters embed it and override
// what their architecture does differently.
type commBase struct {
	model  string
	caps   Capability
	cores  *corePool
	funcs  map[FuncID]*commFunc
	order  []FuncID
	nextID FuncID
	bus    *busSim
	accel  sharedAccel
	res    Resources // schedulable capacity, fixed at construction
}

func newCommBase(model string, caps Capability, cores int) commBase {
	return commBase{
		model:  model,
		caps:   caps,
		cores:  newCorePool(cores),
		funcs:  make(map[FuncID]*commFunc),
		nextID: mem.FirstNF,
		bus:    newBusSim(bus.NewFIFO(), cores),
	}
}

func (c *commBase) Model() string        { return c.model }
func (c *commBase) Caps() Capability     { return c.caps }
func (c *commBase) Resources() Resources { return c.res }
func (c *commBase) Cores() int           { return len(c.cores.owner) }
func (c *commBase) FreeCores() int       { return c.cores.free() }
func (c *commBase) Live() int            { return len(c.funcs) }

// Attest: commodity models have no launch measurement to sign.
func (c *commBase) Attest(FuncID, []byte) (attest.Quote, error) {
	return attest.Quote{}, ErrUnsupported
}

func (c *commBase) Region(id FuncID) (mem.Range, bool) {
	f, ok := c.funcs[id]
	if !ok {
		return mem.Range{}, false
	}
	return f.region, true
}

// CachePolicy: one L2, no partitioning.
func (c *commBase) CachePolicy() cache.Policy { return cache.Shared }

// NewBusArbiter: first-come-first-served, no reservations (§3.3).
func (c *commBase) NewBusArbiter(int) bus.Arbiter { return bus.NewFIFO() }

// Observe: commodity models carry no native instrumentation.
func (c *commBase) Observe(*obs.Registry, string) {}

func (c *commBase) BusOp(client int, now uint64) (uint64, error) {
	return c.bus.op(client, now)
}

// AcceleratorOp: one shared unit; the queueing delay leaks co-tenant
// activity (§3.2).
func (c *commBase) AcceleratorOp(_ FuncID, now uint64) (done, waited uint64) {
	return c.accel.op(now)
}

// register files a launched function under the next id.
func (c *commBase) register(spec FuncSpec, region mem.Range, mask uint64) (FuncID, error) {
	id := c.nextID
	if _, err := c.cores.claim(id, mask); err != nil {
		return 0, err
	}
	c.funcs[id] = &commFunc{
		name:   spec.Name,
		region: region,
		bytes:  spec.MemBytes,
		rules:  spec.Rules,
	}
	c.order = append(c.order, id)
	c.nextID++
	return id, nil
}

// unregister removes a function (no scrubbing: commodity teardown just
// frees the bookkeeping, which is itself one of the §3.2 gaps).
func (c *commBase) unregister(id FuncID) error {
	if _, ok := c.funcs[id]; !ok {
		return ErrNoFunc
	}
	c.cores.release(id)
	delete(c.funcs, id)
	for i, o := range c.order {
		if o == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return nil
}

// checkAccess bounds-checks an owner-scoped access.
func (c *commBase) checkAccess(id FuncID, off uint64, n int) (*commFunc, error) {
	f, ok := c.funcs[id]
	if !ok {
		return nil, ErrNoFunc
	}
	if off+uint64(n) > f.bytes {
		return nil, mem.ErrOutOfRange
	}
	return f, nil
}

// steerFrame picks the receiving function for a frame.
func (c *commBase) steerFrame(frame []byte) (FuncID, error) {
	rules := make(map[FuncID][]pktio.MatchSpec, len(c.funcs))
	for id, f := range c.funcs {
		rules[id] = f.rules
	}
	return steer(c.order, rules, frame)
}

// popFrame dequeues the next pending frame reference.
func (c *commBase) popFrame(id FuncID) (frameRef, error) {
	f, ok := c.funcs[id]
	if !ok {
		return frameRef{}, ErrNoFunc
	}
	if len(f.frames) == 0 {
		return frameRef{}, ErrNoFrame
	}
	fr := f.frames[0]
	f.frames = f.frames[1:]
	return fr, nil
}
