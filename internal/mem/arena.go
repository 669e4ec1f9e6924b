package mem

import "fmt"

// Arena does byte-level accounting for a network function's address space,
// broken into the four segments the paper profiles in Table 6 (text, data,
// code, heap&stack). It is how we reproduce the memory-profiling results:
// every NF data structure allocates through an Arena, so live and peak
// usage are exact and deterministic, including the transient spikes
// (hugepage staging, hash-map resizes) visible in Figure 7.
type Arena struct {
	segs [NumSegments]segment
	// Samples, if non-nil, receives (liveBytes) after every allocation
	// change; used to build the Figure 7 time series.
	Samples func(live uint64)
}

// Segment identifies one of the profiled address-space regions.
type Segment int

// Table 6 segments.
const (
	SegText Segment = iota // read-only executable
	SegData                // static data
	SegCode                // runtime/library code (the paper reports it separately)
	SegHeap                // heap & stack
	NumSegments
)

// String implements fmt.Stringer.
func (s Segment) String() string {
	switch s {
	case SegText:
		return "text"
	case SegData:
		return "data"
	case SegCode:
		return "code"
	case SegHeap:
		return "heap&stack"
	}
	return fmt.Sprintf("segment(%d)", int(s))
}

type segment struct {
	live uint64
	peak uint64
}

// Alloc records an allocation of n bytes in segment s.
func (a *Arena) Alloc(s Segment, n uint64) {
	seg := &a.segs[s]
	seg.live += n
	if seg.live > seg.peak {
		seg.peak = seg.live
	}
	if a.Samples != nil {
		a.Samples(a.Live())
	}
}

// Free records the release of n bytes in segment s. Freeing more than is
// live panics: that is an accounting bug in the caller.
func (a *Arena) Free(s Segment, n uint64) {
	seg := &a.segs[s]
	if n > seg.live {
		panic(fmt.Sprintf("mem: arena underflow in %v: free %d of %d", s, n, seg.live))
	}
	seg.live -= n
	if a.Samples != nil {
		a.Samples(a.Live())
	}
}

// Live returns the currently allocated bytes across all segments.
func (a *Arena) Live() uint64 {
	var n uint64
	for i := range a.segs {
		n += a.segs[i].live
	}
	return n
}

// Profile is a point-in-time snapshot of segment peaks, in bytes.
type Profile struct {
	Text, Data, Code, Heap uint64
}

// Profile captures the per-segment peak usage. The paper sizes TLB
// coverage from maximum per-segment usage ("we profiled the maximum
// memory usage"), so segment peaks, not the global concurrent peak, are
// what Table 6 reports.
func (a *Arena) Profile() Profile {
	return Profile{
		Text: a.segs[SegText].peak,
		Data: a.segs[SegData].peak,
		Code: a.segs[SegCode].peak,
		Heap: a.segs[SegHeap].peak,
	}
}

// Total returns the summed peak bytes of the profile.
func (p Profile) Total() uint64 { return p.Text + p.Data + p.Code + p.Heap }
