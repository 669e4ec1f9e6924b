package nf

import "snic/internal/hashmap"

// MonitorModel tracks the memory trajectory a real Monitor would have —
// image charge, the DPDK staging spike, and hashmap growth including the
// transient old+new resize peaks of Figure 7 — in O(1) state, without
// storing a single flow entry. Full-scale CAIDA replay (26.7 M flows)
// uses it so a shard's entire progress fits in a checkpoint cursor: the
// model's state is four integers, where a real Monitor's would be the
// hash table itself. TestMonitorModelMatchesMonitor pins the model to
// the real NF sample-for-sample at small n.
//
// The one behavioural input per packet is whether the flow is new. The
// growth check mirrors hashmap.Add exactly: only a new flow's insert can
// cross the load threshold and resize the table; a duplicate flow's
// packet updates its counter in place. The Monitor never deletes, so
// tombstones stay zero.
type MonitorModel struct {
	heapLive uint64
	heapPeak uint64
	flows    uint64
	capSlots uint64
	resizes  uint64
}

// imageBytes is what chargeImage adds across the text/data/code
// segments; those segments never change after construction, so their
// live and peak values are both this constant.
const imageBytes = textBytes + dataBytes + codeBytes

// stagingBytes mirrors NewMonitor's transient DPDK hugepage staging
// block: allocated, copied, freed — Figure 7's first spike.
const stagingBytes = 24 << 20

// NewMonitorModel replays NewMonitor's construction sequence: image
// charge, staging alloc/free, initial 1024-slot table.
func NewMonitorModel() *MonitorModel {
	m := &MonitorModel{capSlots: 1024}
	m.heapAlloc(stagingBytes)
	m.heapFree(stagingBytes)
	m.heapAlloc(m.capSlots * hashmap.EntrySize)
	return m
}

func (m *MonitorModel) heapAlloc(n uint64) {
	m.heapLive += n
	if m.heapLive > m.heapPeak {
		m.heapPeak = m.heapLive
	}
}

func (m *MonitorModel) heapFree(n uint64) { m.heapLive -= n }

// Observe accounts one Monitor.Process call. newFlow says whether the
// packet's tuple has been seen by this monitor before.
func (m *MonitorModel) Observe(newFlow bool) {
	if !newFlow {
		return
	}
	if float64(m.flows+1) > hashmap.MaxLoad*float64(m.capSlots) {
		// grow(): the doubled table is allocated while the old one is
		// still live, then the old one is released.
		m.heapAlloc(2 * m.capSlots * hashmap.EntrySize)
		m.heapFree(m.capSlots * hashmap.EntrySize)
		m.capSlots *= 2
		m.resizes++
	}
	m.flows++
}

// Live returns what Arena.Live would report: image plus current heap.
func (m *MonitorModel) Live() uint64 { return imageBytes + m.heapLive }

// Peak returns what Arena.Profile().Total() would report: the image
// segments never shrink, and all churn is in the heap segment, so the
// sum of per-segment peaks is image plus the heap peak.
func (m *MonitorModel) Peak() uint64 { return imageBytes + m.heapPeak }

// Resizes returns how many table growths have occurred.
func (m *MonitorModel) Resizes() uint64 { return m.resizes }

// MonitorModelState is the model's complete serializable state, small
// enough to ride inside a per-shard checkpoint cursor.
type MonitorModelState struct {
	HeapLive uint64 `json:"heap_live"`
	HeapPeak uint64 `json:"heap_peak"`
	Flows    uint64 `json:"flows"`
	CapSlots uint64 `json:"cap_slots"`
	Resizes  uint64 `json:"resizes"`
}

// State captures the model for checkpointing.
func (m *MonitorModel) State() MonitorModelState {
	return MonitorModelState{
		HeapLive: m.heapLive,
		HeapPeak: m.heapPeak,
		Flows:    m.flows,
		CapSlots: m.capSlots,
		Resizes:  m.resizes,
	}
}

// RestoreMonitorModel rebuilds a model from a captured state; the next
// Observe behaves exactly as it would have on the captured model.
func RestoreMonitorModel(st MonitorModelState) *MonitorModel {
	return &MonitorModel{
		heapLive: st.HeapLive,
		heapPeak: st.HeapPeak,
		flows:    st.Flows,
		capSlots: st.CapSlots,
		resizes:  st.Resizes,
	}
}
