// Package accel models the smart NIC's hardware accelerators and S-NIC's
// virtualization of them (§4.3, Figure 3).
//
// A physical accelerator (DPI, ZIP, or RAID) owns a pool of hardware
// threads. S-NIC statically groups threads into clusters and places a
// locked TLB bank in front of each cluster, so a cluster bound to one
// network function can only reach that function's DRAM: its instruction
// queue, buffers, and (for DPI) automaton graph. A cluster's TLB misses
// are fatal, exactly as for programmable cores.
//
// The package also contains the dispatcher/thread timing model that
// regenerates Figure 8 (DPI throughput vs. cluster size and frame size).
package accel

import (
	"fmt"
	"strconv"

	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/tlb"
)

// Kind identifies an accelerator type.
type Kind int

// Accelerator kinds. DPI, ZIP and RAID are the ones the paper evaluates
// (Tables 3 and 7). CRYPTO is the cryptographic unit of the §4.1 launch
// example ("two cryptographic accelerators"); on the Agilio baseline the
// shared crypto units are a contention side channel (§3.2), which S-NIC
// removes by dedicating clusters.
const (
	DPI Kind = iota
	ZIP
	RAID
	CRYPTO
)

// kindNames names each kind, and kindTLB holds its per-cluster TLB size
// under 2 MB pages: the Table 7 buffer inventories for DPI, ZIP and RAID,
// and for CRYPTO the instruction queue, packet descriptor, packet and
// output buffers.
var (
	kindNames = map[Kind]string{DPI: "DPI", ZIP: "ZIP", RAID: "RAID", CRYPTO: "CRYPTO"}
	kindTLB   = map[Kind]int{DPI: 54, ZIP: 70, RAID: 5, CRYPTO: 6}
)

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TLBEntriesFor returns the per-cluster TLB size Table 3/7 derives from
// each accelerator's buffer inventory under 2 MB pages.
func TLBEntriesFor(k Kind) int {
	return kindTLB[k]
}

// Cluster is an allocatable group of hardware threads behind one TLB bank.
type Cluster struct {
	ID      int
	Kind    Kind
	Threads int
	TLB     *tlb.Bank
	owner   mem.Owner
}

// Accelerator is one physical accelerator: a fixed thread pool statically
// grouped into clusters ("current NICs only support clustering threads at
// a granularity of 16 threads", §C — the granularity is configurable
// here).
type Accelerator struct {
	kind     Kind
	clusters []*Cluster
	// obs state; zero until Observe attaches a collector.
	obsReg    *obs.Registry
	obsDevice string
	obsBound  *obs.Gauge
}

// New builds an accelerator with totalThreads grouped into clusters of
// threadsPerCluster. totalThreads must divide evenly.
func New(kind Kind, totalThreads, threadsPerCluster int) (*Accelerator, error) {
	if totalThreads <= 0 || threadsPerCluster <= 0 || totalThreads%threadsPerCluster != 0 {
		return nil, fmt.Errorf("accel: bad geometry %d/%d", totalThreads, threadsPerCluster)
	}
	a := &Accelerator{kind: kind}
	n := totalThreads / threadsPerCluster
	for i := 0; i < n; i++ {
		a.clusters = append(a.clusters, &Cluster{
			ID:      i,
			Kind:    kind,
			Threads: threadsPerCluster,
			TLB:     tlb.NewBank(TLBEntriesFor(kind)),
			owner:   mem.Free,
		})
	}
	return a, nil
}

// Observe attaches per-owner cluster allocation counters and a
// bound-cluster gauge to reg under the given device label (component
// "accel/<kind>"). A nil reg leaves the accelerator detached.
func (a *Accelerator) Observe(reg *obs.Registry, device string) {
	if reg == nil {
		return
	}
	a.obsReg = reg
	a.obsDevice = device
	a.obsBound = reg.Gauge(obs.Label{Device: device, Owner: "-",
		Component: "accel/" + a.kind.String(), Name: "bound_clusters"})
}

// obsCounter interns a per-owner counter (nil when detached; allocation
// paths are cold, so on-demand interning is fine).
func (a *Accelerator) obsCounter(owner mem.Owner, name string) *obs.Counter {
	return a.obsReg.Counter(obs.Label{Device: a.obsDevice,
		Owner:     "nf" + strconv.Itoa(int(owner)),
		Component: "accel/" + a.kind.String(), Name: name})
}

// boundClusters counts clusters currently bound to any owner.
func (a *Accelerator) boundClusters() int64 {
	var n int64
	for _, c := range a.clusters {
		if c.owner != mem.Free {
			n++
		}
	}
	return n
}

// NumClusters returns how many clusters exist.
func (a *Accelerator) NumClusters() int { return len(a.clusters) }

// Alloc binds count clusters to owner, installing the given TLB entries in
// each cluster's bank and locking it. This is the accelerator half of
// nf_launch: it fails atomically (no clusters bound) if not enough are
// free or the mappings are invalid.
func (a *Accelerator) Alloc(owner mem.Owner, count int, entries []tlb.Entry) ([]*Cluster, error) {
	if owner == mem.Free {
		return nil, fmt.Errorf("accel: cannot bind to Free")
	}
	var picked []*Cluster
	for _, c := range a.clusters {
		if c.owner == mem.Free {
			picked = append(picked, c)
			if len(picked) == count {
				break
			}
		}
	}
	if len(picked) < count {
		return nil, fmt.Errorf("accel: %s has %d free clusters, need %d", a.kind, len(picked), count)
	}
	for i, c := range picked {
		// Hardware sizes these banks per Table 7 (2 MB pages); the
		// simulator may pass finer-grained mappings, so size to fit.
		capEntries := TLBEntriesFor(a.kind)
		if len(entries) > capEntries {
			capEntries = len(entries)
		}
		bank := tlb.NewBank(capEntries)
		for _, e := range entries {
			if err := bank.Install(e); err != nil {
				// Unwind everything bound so far: atomic failure.
				for _, u := range picked[:i] {
					u.owner = mem.Free
					u.TLB = tlb.NewBank(TLBEntriesFor(a.kind))
				}
				return nil, fmt.Errorf("accel: cluster %d: %w", c.ID, err)
			}
		}
		bank.Lock()
		c.TLB = bank
		c.owner = owner
	}
	if a.obsReg != nil {
		a.obsCounter(owner, "cluster_allocs").Add(uint64(count))
		a.obsBound.Set(a.boundClusters())
	}
	return picked, nil
}

// Release unbinds every cluster owned by owner, clearing TLB state (the
// accelerator half of nf_teardown). It returns how many were released.
func (a *Accelerator) Release(owner mem.Owner) int {
	n := 0
	for _, c := range a.clusters {
		if c.owner == owner {
			c.owner = mem.Free
			c.TLB = tlb.NewBank(TLBEntriesFor(a.kind))
			n++
		}
	}
	if a.obsReg != nil && n > 0 {
		a.obsCounter(owner, "cluster_releases").Add(uint64(n))
		a.obsBound.Set(a.boundClusters())
	}
	return n
}
