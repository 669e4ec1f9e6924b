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

// commBase is the commodity NIC all three adapters share: plain DRAM
// in 64 KB frames with no ownership checks on raw addresses, a software
// function table and launch order (steering precedence), a core pool,
// an unarbitrated FIFO bus with a hard-crash watchdog, and one shared
// accelerator. The adapters embed it and override what their
// architecture does differently.
type commBase struct {
	model  string
	caps   Capability
	pm     *mem.Physical
	cores  *corePool
	funcs  map[FuncID]*commFunc
	order  []FuncID
	nextID FuncID
	bus    *busSim
	accel  sharedAccel
	res    Resources // schedulable capacity, fixed at construction
}

func newCommBase(model string, caps Capability, spec Spec) (commBase, error) {
	pm, err := mem.NewPhysical(spec.MemBytes, 64<<10)
	if err != nil {
		return commBase{}, err
	}
	c := commBase{
		model:  model,
		caps:   caps,
		pm:     pm,
		cores:  newCorePool(spec.Cores),
		funcs:  make(map[FuncID]*commFunc),
		nextID: mem.FirstNF,
		// "Cluster" reservations are operator admission control over
		// the one time-shared accelerator, not hardware.
		res: Resources{
			Cores:         spec.Cores,
			MemBytes:      pm.Size(),
			TLBEntries:    spec.Cores * TLBEntriesPerCore,
			CacheWays:     DefaultCacheWays,
			AccelClusters: spec.Cores,
		},
	}
	c.bus = newBusSim(c.NewBusArbiter, spec.Cores) // every core is a bus client
	return c, nil
}

func (c *commBase) Model() string        { return c.model }
func (c *commBase) Caps() Capability     { return c.caps }
func (c *commBase) Resources() Resources { return c.res }
func (c *commBase) Cores() int           { return len(c.cores.owner) }
func (c *commBase) FreeCores() int       { return c.cores.free() }
func (c *commBase) Live() int            { return len(c.funcs) }
func (c *commBase) MemBytes() uint64     { return c.pm.Size() }
func (c *commBase) FrameSize() uint64    { return c.pm.FrameSize() }

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

// Teardown frees the bookkeeping only: nothing scrubs the function's
// bytes, which stay in DRAM for the next scan (one of the §3.2 gaps).
func (c *commBase) Teardown(id FuncID) error { return c.unregister(id) }

func (c *commBase) Read(id FuncID, off uint64, buf []byte) error {
	f, err := c.checkAccess(id, off, len(buf))
	if err != nil {
		return err
	}
	return c.pm.Read(f.region.Start+mem.Addr(off), buf)
}

func (c *commBase) Write(id FuncID, off uint64, data []byte) error {
	f, err := c.checkAccess(id, off, len(data))
	if err != nil {
		return err
	}
	return c.pm.Write(f.region.Start+mem.Addr(off), data)
}

// Inject stages a delivered frame in the upper half of the receiver's
// region (a simple per-function RX area; the memory is still plain
// shared DRAM, which is what the corruption attack exploits).
func (c *commBase) Inject(frame []byte) (FuncID, error) {
	id, err := c.steerFrame(frame)
	if err != nil || id == 0 {
		return 0, err
	}
	f := c.funcs[id]
	off := f.bytes/2 + f.frameOff
	if off+uint64(len(frame)) > f.bytes {
		return 0, ErrNoFrame
	}
	addr := f.region.Start + mem.Addr(off)
	if err := c.pm.Write(addr, frame); err != nil {
		return 0, err
	}
	f.frameOff += mem.AlignUp(uint64(len(frame)), 64)
	f.frames = append(f.frames, frameRef{addr: addr, n: len(frame)})
	return id, nil
}

func (c *commBase) Retrieve(id FuncID) ([]byte, error) {
	fr, err := c.popFrame(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fr.n)
	if err := c.pm.Read(fr.addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ProbeRead: cores address DRAM physically, with no per-function check
// (xkphys on LiquidIO, raw island addressing on Agilio; §3.2).
func (c *commBase) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	if _, ok := c.funcs[id]; !ok {
		return ErrNoFunc
	}
	return c.pm.Read(pa, buf)
}

func (c *commBase) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	if _, ok := c.funcs[id]; !ok {
		return ErrNoFunc
	}
	return c.pm.Write(pa, data)
}

// MgmtRead: privileged software sees plain DRAM.
func (c *commBase) MgmtRead(pa mem.Addr, buf []byte) error {
	return c.pm.Read(pa, buf)
}

// register files a launched function under the next id, on the cores
// of mask (validated by corePool.pick).
func (c *commBase) register(spec FuncSpec, region mem.Range, mask uint64) FuncID {
	id := c.nextID
	c.cores.bind(id, mask)
	c.funcs[id] = &commFunc{region: region, bytes: spec.MemBytes, rules: spec.Rules}
	c.order = append(c.order, id)
	c.nextID++
	return id
}

// unregister removes a function's bookkeeping and frees its cores.
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
