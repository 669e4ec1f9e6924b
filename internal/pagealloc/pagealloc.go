// Package pagealloc plans how an NF's (or accelerator's) address space is
// covered by locked TLB entries under a given set of supported page sizes.
//
// The planner implements the policy the paper states for Tables 5 and 6:
// "When allocating pages for a function's code, static data, heap, and
// stack regions, we try to minimize the amount of wasted memory." So for
// each segment it first fixes the allocation to the smallest multiple of
// the smallest supported page that covers the segment (minimum waste),
// then decomposes that allocation greedily from the largest page downward
// (minimum entries at that waste level). This reproduces the published
// entry counts exactly — e.g. DPI under {128 KB, 2 MB, 64 MB} needs 51
// entries, and Monitor under {2 MB, 32 MB, 128 MB} needs 12.
package pagealloc

import (
	"fmt"
	"sort"
)

// KB, MB: byte units used throughout the sizing tables.
const (
	KB uint64 = 1 << 10
	MB uint64 = 1 << 20
)

// PageSet is an ordered (ascending) list of supported page sizes.
type PageSet []uint64

// The three page-size settings evaluated in §5.2 (naming follows the §5.2
// prose; the caption of the paper's Table 5 transposes the two Flex
// labels, which we note in EXPERIMENTS.md).
var (
	Equal    = PageSet{2 * MB}                    // 2 MB only
	FlexLow  = PageSet{128 * KB, 2 * MB, 64 * MB} // small pages available
	FlexHigh = PageSet{2 * MB, 32 * MB, 128 * MB} // big pages available
)

// Validate checks that the set is non-empty, strictly ascending, and that
// every page size is a multiple of the smallest (required for the greedy
// decomposition to tile exactly).
func (ps PageSet) Validate() error {
	if len(ps) == 0 {
		return fmt.Errorf("pagealloc: empty page set")
	}
	if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i] < ps[j] }) {
		return fmt.Errorf("pagealloc: page set not ascending: %v", ps)
	}
	for i, s := range ps {
		if s == 0 {
			return fmt.Errorf("pagealloc: zero page size")
		}
		if i > 0 && ps[i] == ps[i-1] {
			return fmt.Errorf("pagealloc: duplicate page size %d", s)
		}
		if s%ps[0] != 0 {
			return fmt.Errorf("pagealloc: page size %d not a multiple of base %d", s, ps[0])
		}
	}
	return nil
}

// Mapping is one planned TLB entry: a page of the given size.
type Mapping struct {
	PageSize uint64
	Count    int
}

// SegmentPlan is the coverage plan for one contiguous segment.
type SegmentPlan struct {
	Used      uint64 // bytes the segment actually needs
	Allocated uint64 // bytes the plan reserves (>= Used)
	Entries   int    // TLB entries consumed
	Pages     []Mapping
}

// PlanSegment covers a segment of `used` bytes with pages from ps.
func PlanSegment(used uint64, ps PageSet) (SegmentPlan, error) {
	if err := ps.Validate(); err != nil {
		return SegmentPlan{}, err
	}
	if used == 0 {
		return SegmentPlan{Used: 0, Allocated: 0, Entries: 0}, nil
	}
	base := ps[0]
	target := ((used + base - 1) / base) * base // minimum-waste allocation
	plan := SegmentPlan{Used: used, Allocated: target}
	rem := target
	for i := len(ps) - 1; i >= 0; i-- {
		n := rem / ps[i]
		if n > 0 {
			plan.Pages = append(plan.Pages, Mapping{PageSize: ps[i], Count: int(n)})
			plan.Entries += int(n)
			rem -= n * ps[i]
		}
	}
	if rem != 0 {
		return SegmentPlan{}, fmt.Errorf("pagealloc: %d bytes left uncovered", rem)
	}
	return plan, nil
}

// EntriesFor returns the TLB entries that cover the given segments under
// ps. Each segment gets its own pages: segments are not packed together,
// matching how text/data/code/heap regions have distinct permissions and
// placement.
func EntriesFor(used []uint64, ps PageSet) (int, error) {
	n := 0
	for _, u := range used {
		sp, err := PlanSegment(u, ps)
		if err != nil {
			return 0, err
		}
		n += sp.Entries
	}
	return n, nil
}
