package device

import (
	"fmt"
	"math"

	"snic/internal/mem"
)

func init() {
	// SE-S: bootloader-installed NFs, all privileged, xkphys everywhere.
	Register("liquidio-ses", func(spec Spec) (NIC, error) {
		return newLiquidIO(spec, "liquidio-ses", 0)
	})
	// SE-UM: NFs are Linux processes. xkphys stays enabled (the §3.3
	// attack configuration), and the kernel demand-pages the processes —
	// which is the controlled-channel prerequisite.
	Register("liquidio-seum", func(spec Spec) (NIC, error) {
		return newLiquidIO(spec, "liquidio-seum", DemandPaging)
	})
}

// Shared buffer allocator layout: a table of metaCap records at DRAM
// address 0, each metaEntryBytes long, followed by a bump-only heap.
const (
	metaCap        = 1024
	metaEntryBytes = 24
)

// Buffer tags the allocator stamps into each metadata record ("what
// kind of buffer"), which is what the §3.3 scans key on.
const (
	tagPacket  uint32 = 0x504B5431 // "PKT1"
	tagGeneric uint32 = 0x42554631 // "BUF1"
)

// liquidIO models the Cavium LiquidIO (SE-S / SE-UM): every MIPS core
// can address all physical memory through xkphys, and the shared
// packet-buffer allocator keeps its metadata in ordinary DRAM — so any
// function can find and touch any other function's buffers. Function
// memory comes from that allocator, so every reservation is visible in
// the metadata table the §3.3 scans walk. The allocator has no free():
// after teardown the metadata lingers and the heap only grows.
type liquidIO struct {
	commBase
	metaLen  int      // records written to the metadata table
	heapNext mem.Addr // next free byte of the buffer heap
}

func newLiquidIO(spec Spec, model string, extraCaps Capability) (*liquidIO, error) {
	c, err := newCommBase(model, extraCaps, spec)
	if err != nil {
		return nil, err
	}
	return &liquidIO{commBase: c, heapNext: metaCap * metaEntryBytes}, nil
}

// allocBuf carves an n-byte buffer for owner from the shared heap and
// records (owner, addr, len|tag<<32) in the DRAM metadata table, exactly
// like the buffer allocator the attacks scan.
func (d *liquidIO) allocBuf(owner mem.Owner, n uint32, tag uint32) (mem.Addr, error) {
	if d.metaLen >= metaCap {
		return 0, fmt.Errorf("device: %s allocator metadata full", d.model)
	}
	addr := d.heapNext
	if uint64(addr)+uint64(n) > d.pm.Size() {
		return 0, fmt.Errorf("device: %s out of buffer memory", d.model)
	}
	d.heapNext += mem.Addr(mem.AlignUp(uint64(n), 64))
	base := mem.Addr(d.metaLen * metaEntryBytes)
	for i, v := range []uint64{uint64(owner), uint64(addr), uint64(n) | uint64(tag)<<32} {
		if err := d.pm.WriteU64(base+mem.Addr(8*i), v); err != nil {
			return 0, err
		}
	}
	d.metaLen++
	return addr, nil
}

func (d *liquidIO) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	if spec.MemBytes > math.MaxUint32 {
		return 0, fmt.Errorf("device: %s reservation too large", d.model)
	}
	mask, err := d.cores.pick(spec.CoreMask)
	if err != nil {
		return 0, err
	}
	addr, err := d.allocBuf(d.nextID, uint32(spec.MemBytes), tagGeneric)
	if err != nil {
		return 0, err
	}
	if err := d.pm.Write(addr, spec.Image); err != nil {
		return 0, err
	}
	fs := d.pm.FrameSize()
	region := mem.Range{Start: addr, Frames: (spec.MemBytes + fs - 1) / fs}
	return d.register(spec, region, mask), nil
}

func (d *liquidIO) Inject(frame []byte) (FuncID, error) {
	id, err := d.steerFrame(frame)
	if err != nil || id == 0 {
		return 0, err
	}
	// Packet buffers come from the shared pool, tagged in the metadata
	// table like the real allocator's.
	addr, err := d.allocBuf(id, uint32(len(frame)), tagPacket)
	if err != nil {
		return 0, err
	}
	if err := d.pm.Write(addr, frame); err != nil {
		return 0, err
	}
	d.funcs[id].frames = append(d.funcs[id].frames, frameRef{addr: addr, n: len(frame)})
	return id, nil
}
