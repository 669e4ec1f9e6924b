// Package mem models the physical memory of a smart NIC: general-purpose
// DRAM divided into frames, each with single-owner semantics (§4.2 of the
// paper). The trusted hardware tracks which frames belong to which
// principal in an ownership map — the paper's "bitmap which tracks which
// physical RAM pages have been allocated to a network function" — and
// scrubs frames on teardown so no state leaks to the next owner.
//
// Frame contents are backed lazily: a frame consumes host memory only once
// it is written, so multi-gigabyte NICs can be modelled cheaply.
package mem

import (
	"fmt"
	"sort"
)

// AlignUp rounds n up to the next multiple of a (a must be non-zero).
// Sizing calculations all over the device layer — TLB entry spans,
// launch-profile reservations, frame-aligned windows — share this one
// definition.
func AlignUp(n, a uint64) uint64 { return (n + a - 1) / a * a }

// Owner identifies a principal that can own physical frames.
type Owner uint16

// Reserved owners. NF owners are assigned from FirstNF upward.
const (
	Free    Owner = 0 // unallocated
	NICOS   Owner = 1 // the datacenter-provided management OS
	HW      Owner = 2 // hardware-private memory (denylist tables, launch records)
	FirstNF Owner = 3
)

// Addr is a physical byte address on the NIC.
type Addr uint64

// Physical models the NIC's DRAM.
type Physical struct {
	frameSize uint64
	nframes   uint64
	owner     []Owner
	frames    map[uint64][]byte // lazily allocated backing store
	freeHint  uint64

	// Warm arena pool (pool.go): scrubbed frame runs parked under the
	// Pooled owner for reuse by the next launch. Disabled (poolCap 0)
	// unless the device layer opts in.
	pool       []Range
	poolFrames uint64
	poolCap    uint64
}

// NewPhysical creates a DRAM of total bytes divided into frameSize frames.
// Both must be positive and total must be a multiple of frameSize.
func NewPhysical(total, frameSize uint64) (*Physical, error) {
	if frameSize == 0 || total == 0 || total%frameSize != 0 {
		return nil, fmt.Errorf("mem: invalid geometry total=%d frame=%d", total, frameSize)
	}
	n := total / frameSize
	return &Physical{
		frameSize: frameSize,
		nframes:   n,
		owner:     make([]Owner, n),
		frames:    make(map[uint64][]byte),
	}, nil
}

// FrameSize returns the frame granularity in bytes.
func (p *Physical) FrameSize() uint64 { return p.frameSize }

// Size returns total DRAM bytes.
func (p *Physical) Size() uint64 { return p.nframes * p.frameSize }

// NumFrames returns the number of frames.
func (p *Physical) NumFrames() uint64 { return p.nframes }

// Range is a contiguous run of physical frames.
type Range struct {
	Start  Addr   // first byte
	Frames uint64 // length in frames
}

// Alloc finds nframes contiguous free frames, assigns them to owner, and
// returns the range. It fails if no contiguous run exists.
func (p *Physical) Alloc(owner Owner, nframes uint64) (Range, error) {
	if owner == Free {
		return Range{}, fmt.Errorf("mem: cannot allocate to Free")
	}
	if nframes == 0 || nframes > p.nframes {
		return Range{}, fmt.Errorf("mem: bad allocation size %d", nframes)
	}
	start, run := p.freeHint, uint64(0)
	scanned := uint64(0)
	i := p.freeHint
	for scanned <= p.nframes+nframes {
		if i >= p.nframes {
			i, start, run = 0, 0, 0
			scanned++
			continue
		}
		if p.owner[i] == Free {
			if run == 0 {
				start = i
			}
			run++
			if run == nframes {
				for f := start; f < start+nframes; f++ {
					p.owner[f] = owner
				}
				p.freeHint = start + nframes
				return Range{Start: Addr(start * p.frameSize), Frames: nframes}, nil
			}
		} else {
			run = 0
		}
		i++
		scanned++
	}
	return Range{}, fmt.Errorf("mem: no contiguous run of %d frames", nframes)
}

// AllocBytes allocates enough frames to hold n bytes.
func (p *Physical) AllocBytes(owner Owner, n uint64) (Range, error) {
	frames := (n + p.frameSize - 1) / p.frameSize
	if frames == 0 {
		frames = 1
	}
	return p.Alloc(owner, frames)
}

// ReleaseAll scrubs and frees every frame owned by owner, so nothing
// leaks to the next owner (the memory half of nf_teardown). It returns
// the number of bytes scrubbed, the quantity that dominates nf_destroy
// latency in Figure 6.
func (p *Physical) ReleaseAll(owner Owner) uint64 {
	var n uint64
	for f := uint64(0); f < p.nframes; f++ {
		if p.owner[f] == owner {
			delete(p.frames, f)
			p.owner[f] = Free
			n += p.frameSize
			if f < p.freeHint {
				p.freeHint = f
			}
		}
	}
	return n
}

// OwnedRanges returns the contiguous ranges owned by owner, sorted by
// address. Useful for building page tables covering an NF's memory.
func (p *Physical) OwnedRanges(owner Owner) []Range {
	var out []Range
	var run uint64
	var start uint64
	for f := uint64(0); f <= p.nframes; f++ {
		if f < p.nframes && p.owner[f] == owner {
			if run == 0 {
				start = f
			}
			run++
			continue
		}
		if run > 0 {
			out = append(out, Range{Start: Addr(start * p.frameSize), Frames: run})
			run = 0
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (p *Physical) frame(f uint64, create bool) []byte {
	b, ok := p.frames[f]
	if !ok && create {
		b = make([]byte, p.frameSize)
		p.frames[f] = b
	}
	return b
}

// ErrOutOfRange is returned for accesses past the end of DRAM.
var ErrOutOfRange = fmt.Errorf("mem: physical address out of range")

// Write stores data at physical address pa with no access control: this is
// the raw DRAM port. Access-control checks (TLBs, denylists) live above
// this layer — which is exactly why commodity NICs that expose raw
// physical addressing (xkphys, Agilio islands) are attackable.
func (p *Physical) Write(pa Addr, data []byte) error {
	if uint64(pa)+uint64(len(data)) > p.Size() {
		return ErrOutOfRange
	}
	off := uint64(pa)
	for len(data) > 0 {
		f := off / p.frameSize
		fo := off % p.frameSize
		n := p.frameSize - fo
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		copy(p.frame(f, true)[fo:fo+n], data[:n])
		data = data[n:]
		off += n
	}
	return nil
}

// Read loads len(buf) bytes from pa into buf. Unbacked frames read as zero.
func (p *Physical) Read(pa Addr, buf []byte) error {
	if uint64(pa)+uint64(len(buf)) > p.Size() {
		return ErrOutOfRange
	}
	off := uint64(pa)
	out := buf
	for len(out) > 0 {
		f := off / p.frameSize
		fo := off % p.frameSize
		n := p.frameSize - fo
		if n > uint64(len(out)) {
			n = uint64(len(out))
		}
		if fb := p.frame(f, false); fb != nil {
			copy(out[:n], fb[fo:fo+n])
		} else {
			for i := range out[:n] {
				out[i] = 0
			}
		}
		out = out[n:]
		off += n
	}
	return nil
}

// WriteU64 stores a little-endian uint64 at pa.
func (p *Physical) WriteU64(pa Addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return p.Write(pa, b[:])
}
