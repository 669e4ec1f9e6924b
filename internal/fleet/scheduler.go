package fleet

import (
	"fmt"

	"snic/internal/device"
)

// strategy is a placement policy: given the active devices in sorted
// name order, pick the one to host spec. Every strategy is a pure
// function of the candidate list (name, free vector, live count) with
// sorted-name tie-breaking, so placement order — and therefore every
// oper-state golden — is independent of map iteration and scheduling.
type strategy interface {
	name() string
	// pick chooses against free, an externally maintained free table
	// (the drain planner's all-or-nothing simulation), or against the
	// live free vectors when free is nil.
	pick(cands []*managedDevice, free map[string]device.Resources, spec NFSpec) (string, device.Resources, error)
}

// strategyFor resolves a policy name ("" selects bestfit).
func strategyFor(policy string) (strategy, error) {
	switch policy {
	case "", "bestfit":
		return bestFit{}, nil
	case "firstfit":
		return firstFit{}, nil
	case "spread":
		return spread{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (have bestfit, firstfit, spread)", policy)
	}
}

// fitOn computes the effective demand of spec on device d (TLB-entry
// demand depends on d's ownership frame size) and whether it fits in
// free.
func fitOn(d *managedDevice, free device.Resources, spec NFSpec) (device.Resources, bool) {
	demand := spec.demandOn(d.nic.FrameSize())
	return demand, free.Fits(demand)
}

// freeOf returns d's entry in free, or its live free vector when free
// is nil.
func freeOf(d *managedDevice, free map[string]device.Resources) device.Resources {
	if free != nil {
		return free[d.name]
	}
	return d.free()
}

// lessFree orders two free vectors lexicographically by (cores, mem, TLB,
// ways, clusters) — the shared comparison bestFit and spread invert.
func lessFree(a, b device.Resources) bool {
	if a.Cores != b.Cores {
		return a.Cores < b.Cores
	}
	if a.MemBytes != b.MemBytes {
		return a.MemBytes < b.MemBytes
	}
	if a.TLBEntries != b.TLBEntries {
		return a.TLBEntries < b.TLBEntries
	}
	if a.CacheWays != b.CacheWays {
		return a.CacheWays < b.CacheWays
	}
	return a.AccelClusters < b.AccelClusters
}

// firstFit places on the first (lowest-name) device with room — the
// λ-NIC-style latency-first policy: no scoring pass, stable fronts.
type firstFit struct{}

func (firstFit) name() string { return "firstfit" }

func (firstFit) pick(cands []*managedDevice, free map[string]device.Resources, spec NFSpec) (string, device.Resources, error) {
	for _, d := range cands {
		fr := freeOf(d, free)
		if demand, ok := fitOn(d, fr, spec); ok {
			return d.name, demand, nil
		}
	}
	return "", device.Resources{}, fmt.Errorf("%w: %s", ErrNoCapacity, spec.Name)
}

// bestFit packs tightly: among fitting devices, choose the one whose
// remaining free vector after placement is smallest — classic bin
// packing, maximizing whole-device headroom for future large tenants
// (and emptying the fewest bins for drains).
type bestFit struct{}

func (bestFit) name() string { return "bestfit" }

func (bestFit) pick(cands []*managedDevice, free map[string]device.Resources, spec NFSpec) (string, device.Resources, error) {
	bestName := ""
	var bestDemand, bestRem device.Resources
	for _, d := range cands {
		fr := freeOf(d, free)
		demand, ok := fitOn(d, fr, spec)
		if !ok {
			continue
		}
		rem := fr.Sub(demand)
		if bestName == "" || lessFree(rem, bestRem) {
			bestName, bestDemand, bestRem = d.name, demand, rem
		}
	}
	if bestName == "" {
		return "", device.Resources{}, fmt.Errorf("%w: %s", ErrNoCapacity, spec.Name)
	}
	return bestName, bestDemand, nil
}

// spread balances: among fitting devices, choose the one with the
// fewest live NFs, then the largest remaining free vector — the
// blast-radius-minimizing policy for failover experiments.
type spread struct{}

func (spread) name() string { return "spread" }

func (spread) pick(cands []*managedDevice, free map[string]device.Resources, spec NFSpec) (string, device.Resources, error) {
	bestName := ""
	bestLive := 0
	var bestDemand, bestRem device.Resources
	for _, d := range cands {
		fr := freeOf(d, free)
		demand, ok := fitOn(d, fr, spec)
		if !ok {
			continue
		}
		rem := fr.Sub(demand)
		better := bestName == "" ||
			len(d.placed) < bestLive ||
			(len(d.placed) == bestLive && lessFree(bestRem, rem))
		if better {
			bestName, bestLive, bestDemand, bestRem = d.name, len(d.placed), demand, rem
		}
	}
	if bestName == "" {
		return "", device.Resources{}, fmt.Errorf("%w: %s", ErrNoCapacity, spec.Name)
	}
	return bestName, bestDemand, nil
}
