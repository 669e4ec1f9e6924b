package device

import "fmt"

// Resources is the schedulable capacity vector of a device — the axes a
// fleet-level placer bin-packs tenant functions against. Every axis is
// something the models already meter individually: programmable cores
// (core tables), DRAM bytes (mem.Physical), locked-TLB entries installed at
// launch (§4.2), shared-L2 ways (§4.5 static partitioning), and
// accelerator clusters (§4.4 reservations).
//
// Capacities are reported uniformly across models so one scheduler can
// pack a mixed fleet: on commodity NICs the cache-way and cluster axes
// are admission-control budgets the *operator* enforces (the hardware
// shares them best-effort), while on S-NIC the same reservation is what
// the hardware actually partitions.
type Resources struct {
	Cores         int    `json:"cores"`
	MemBytes      uint64 `json:"mem_bytes"`
	TLBEntries    int    `json:"tlb_entries"`
	CacheWays     int    `json:"cache_ways"`
	AccelClusters int    `json:"accel_clusters"`
}

// Per-core locked-TLB entry budget every model reports. The S-NIC
// launch plan sizes each function's bank to exactly its mapping count,
// so the fleet-level budget bounds the *sum* of per-function banks.
const TLBEntriesPerCore = 64

// DefaultCacheWays is the shared-L2 associativity the Figure 5 sweeps
// model (exp.Fig5Config builds 16-way caches); the way axis is what
// static partitioning carves up.
const DefaultCacheWays = 16

// WarmPoolFrames sizes a device's warm scrubbed-arena pool from its
// capacity vector: a quarter of DRAM, in frames. Large enough that a
// churn workload's steady-state working set stays warm, small enough
// that parked frames never starve cold allocations — the general
// allocator always keeps three quarters of the device to itself.
func WarmPoolFrames(r Resources, frameSize uint64) uint64 {
	if frameSize == 0 {
		return 0
	}
	return r.MemBytes / 4 / frameSize
}

// Fits reports whether d fits inside the remaining capacity r.
func (r Resources) Fits(d Resources) bool {
	return d.Cores <= r.Cores &&
		d.MemBytes <= r.MemBytes &&
		d.TLBEntries <= r.TLBEntries &&
		d.CacheWays <= r.CacheWays &&
		d.AccelClusters <= r.AccelClusters
}

// Add returns r with d added axis-wise.
func (r Resources) Add(d Resources) Resources {
	r.Cores += d.Cores
	r.MemBytes += d.MemBytes
	r.TLBEntries += d.TLBEntries
	r.CacheWays += d.CacheWays
	r.AccelClusters += d.AccelClusters
	return r
}

// Sub returns r with d removed axis-wise. It panics if any axis would go
// negative: accounting bugs must not round to zero silently.
func (r Resources) Sub(d Resources) Resources {
	if !r.Fits(d) {
		panic(fmt.Sprintf("device: resource underflow: %v - %v", r, d))
	}
	r.Cores -= d.Cores
	r.MemBytes -= d.MemBytes
	r.TLBEntries -= d.TLBEntries
	r.CacheWays -= d.CacheWays
	r.AccelClusters -= d.AccelClusters
	return r
}

func (r Resources) String() string {
	return fmt.Sprintf("cores=%d mem=%dKB tlb=%d ways=%d clusters=%d",
		r.Cores, r.MemBytes>>10, r.TLBEntries, r.CacheWays, r.AccelClusters)
}
