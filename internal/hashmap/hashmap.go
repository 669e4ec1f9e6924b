// Package hashmap implements an open-addressing hash table with explicit,
// deterministic memory accounting. It stands in for the Rust standard
// library HashMap the paper's NFs use: capacity doubles when the load
// factor is exceeded, and a resize transiently holds both the old and new
// tables — exactly the behaviour behind the memory spikes in Figure 7 and
// the "preallocation wastes around a third of the memory due to HashMap
// resizing" observation in Table 8.
//
// Keys and values are fixed-size (Key is a 16-byte flow key, values are
// uint64), mirroring the flow-keyed maps in Firewall, NAT, and Monitor.
package hashmap

import "snic/internal/mem"

// Key is a fixed 16-byte key, wide enough for an IPv4 5-tuple with padding.
type Key [16]byte

// entrySize is the in-memory cost we charge per slot: key + value +
// 1 control byte, rounded to what Rust's hashbrown charges per slot
// (key+value plus 1 byte of control metadata, with 87.5% max load).
const entrySize = 16 + 8 + 1

// EntrySize and MaxLoad export the table's cost model so analytical
// replicas (nf.MonitorModel tracks a Monitor's memory trajectory without
// storing any entries) charge exactly what a live Map would.
const (
	EntrySize = entrySize
	MaxLoad   = 0.875
)

// Map is an open-addressing (linear probing) hash map from Key to uint64.
type Map struct {
	arena   *mem.Arena
	keys    []Key
	vals    []uint64
	state   []uint8 // 0 empty, 1 full, 2 tombstone
	n       int     // live entries
	tombs   int
	maxLoad float64
}

// New creates a map with initial capacity for hint entries (rounded up to
// a power of two) charging its memory to arena. A nil arena is allowed.
func New(arena *mem.Arena, hint int) *Map {
	capacity := 8
	for capacity < hint {
		capacity *= 2
	}
	m := &Map{arena: arena, maxLoad: MaxLoad}
	m.alloc(capacity)
	return m
}

func (m *Map) alloc(capacity int) {
	m.keys = make([]Key, capacity)
	m.vals = make([]uint64, capacity)
	m.state = make([]uint8, capacity)
	if m.arena != nil {
		m.arena.Alloc(mem.SegHeap, uint64(capacity)*entrySize)
	}
}

func (m *Map) release(capacity int) {
	if m.arena != nil {
		m.arena.Free(mem.SegHeap, uint64(capacity)*entrySize)
	}
}

// Len returns the number of live entries.
func (m *Map) Len() int { return m.n }

// FootprintBytes returns the map's current accounted memory.
func (m *Map) FootprintBytes() uint64 { return uint64(len(m.keys)) * entrySize }

func hashKey(k Key) uint64 {
	// FNV-1a over the 16 bytes; cheap, deterministic, well-spread.
	h := uint64(1469598103934665603)
	for _, b := range k {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (m *Map) slot(k Key) (int, bool) {
	mask := len(m.keys) - 1
	i := int(hashKey(k)) & mask
	firstTomb := -1
	for {
		switch m.state[i] {
		case 0:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return i, false
		case 1:
			if m.keys[i] == k {
				return i, true
			}
		case 2:
			if firstTomb < 0 {
				firstTomb = i
			}
		}
		i = (i + 1) & mask
	}
}

// Get returns the value for k and whether it is present.
func (m *Map) Get(k Key) (uint64, bool) {
	i, ok := m.slot(k)
	if !ok {
		return 0, false
	}
	return m.vals[i], true
}

// Put inserts or updates k -> v, growing the table only when inserting
// an absent key would cross the load threshold.
func (m *Map) Put(k Key, v uint64) {
	i, ok := m.slot(k)
	if !ok {
		m.insert(k, i, v)
		return
	}
	m.vals[i] = v
}

// Add increments the value for k by delta, inserting it at delta if absent.
// This is the Monitor NF's per-flow packet counter fast path.
func (m *Map) Add(k Key, delta uint64) {
	i, ok := m.slot(k)
	if !ok {
		m.insert(k, i, delta)
		return
	}
	m.vals[i] += delta
}

// insert stores the absent key k -> v at slot i, where its lookup ended.
// If one more entry would cross the load threshold, the table grows first
// and k is probed again in the new table.
func (m *Map) insert(k Key, i int, v uint64) {
	if float64(m.n+m.tombs+1) > m.maxLoad*float64(len(m.keys)) {
		m.grow()
		i, _ = m.slot(k)
	}
	if m.state[i] == 2 {
		m.tombs--
	}
	m.state[i] = 1
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

// Delete removes k, returning whether it was present.
func (m *Map) Delete(k Key) bool {
	i, ok := m.slot(k)
	if !ok {
		return false
	}
	m.state[i] = 2
	m.tombs++
	m.n--
	return true
}

func (m *Map) grow() {
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	oldCap := len(oldKeys)
	// Old and new tables are live simultaneously during rehash: this is
	// the transient allocation that Figure 7's spikes come from.
	m.alloc(oldCap * 2)
	m.n, m.tombs = 0, 0
	for i, st := range oldState {
		if st == 1 {
			m.reinsert(oldKeys[i], oldVals[i])
		}
	}
	m.release(oldCap)
}

func (m *Map) reinsert(k Key, v uint64) {
	mask := len(m.keys) - 1
	i := int(hashKey(k)) & mask
	for m.state[i] == 1 {
		i = (i + 1) & mask
	}
	m.state[i] = 1
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}
