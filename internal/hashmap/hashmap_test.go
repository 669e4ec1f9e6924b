package hashmap

import (
	"testing"
	"testing/quick"

	"snic/internal/mem"
	"snic/internal/sim"
)

func key(i uint64) Key {
	var k Key
	for b := 0; b < 8; b++ {
		k[b] = byte(i >> (8 * b))
	}
	return k
}

func TestPutGet(t *testing.T) {
	m := New(nil, 0)
	for i := uint64(0); i < 1000; i++ {
		m.Put(key(i), i*3)
	}
	if m.Len() != 1000 {
		t.Fatalf("len = %d", m.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := m.Get(key(i))
		if !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := m.Get(key(5000)); ok {
		t.Fatal("found absent key")
	}
}

func TestPutOverwrites(t *testing.T) {
	m := New(nil, 0)
	m.Put(key(1), 10)
	m.Put(key(1), 20)
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if v, _ := m.Get(key(1)); v != 20 {
		t.Fatalf("v = %d", v)
	}
}

func TestAdd(t *testing.T) {
	m := New(nil, 0)
	for i := 0; i < 5; i++ {
		m.Add(key(7), 2)
	}
	if v, _ := m.Get(key(7)); v != 10 {
		t.Fatalf("counter = %d", v)
	}
}

func TestDelete(t *testing.T) {
	m := New(nil, 0)
	m.Put(key(1), 1)
	m.Put(key(2), 2)
	if !m.Delete(key(1)) {
		t.Fatal("delete existing failed")
	}
	if m.Delete(key(1)) {
		t.Fatal("delete absent succeeded")
	}
	if _, ok := m.Get(key(1)); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get(key(2)); !ok || v != 2 {
		t.Fatal("unrelated key damaged by delete")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestTombstoneReuse(t *testing.T) {
	m := New(nil, 0)
	for i := uint64(0); i < 100; i++ {
		m.Put(key(i), i)
	}
	for i := uint64(0); i < 100; i++ {
		m.Delete(key(i))
	}
	// Re-inserting must not blow up capacity unboundedly.
	for i := uint64(0); i < 100; i++ {
		m.Put(key(i), i+1)
	}
	for i := uint64(0); i < 100; i++ {
		if v, ok := m.Get(key(i)); !ok || v != i+1 {
			t.Fatalf("Get(%d) after tombstone churn = %d,%v", i, v, ok)
		}
	}
}

func TestGrowthDoubles(t *testing.T) {
	m := New(nil, 8)
	c0 := len(m.keys)
	for i := uint64(0); i < uint64(c0); i++ {
		m.Put(key(i), i)
	}
	if len(m.keys) != 2*c0 {
		t.Fatalf("cap = %d, want %d", len(m.keys), 2*c0)
	}
}

// TestPresentKeyAtThresholdDoesNotGrow fills a 16-slot map up to the
// load threshold it reaches after one resize (28 keys in 32 slots), then
// writes every key again: a write that adds no key must not grow the
// table. The next absent key is the one that crosses the threshold.
func TestPresentKeyAtThresholdDoesNotGrow(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(m *Map, k Key)
	}{
		{"Put", func(m *Map, k Key) { m.Put(k, 7) }},
		{"Add", func(m *Map, k Key) { m.Add(k, 1) }},
	} {
		m := New(nil, 16)
		for i := uint64(0); i < 28; i++ {
			w.write(m, key(i))
		}
		if len(m.keys) != 32 {
			t.Fatalf("%s: %d slots after 28 keys, want 32 (one resize)", w.name, len(m.keys))
		}
		for i := uint64(0); i < 28; i++ {
			w.write(m, key(i))
		}
		if len(m.keys) != 32 || m.Len() != 28 {
			t.Errorf("%s of present keys: %d slots, %d keys; want 32 and 28", w.name, len(m.keys), m.Len())
		}
		w.write(m, key(28))
		if len(m.keys) != 64 {
			t.Errorf("%s of the 29th key: %d slots, want 64", w.name, len(m.keys))
		}
	}
}

func TestArenaChargesResizeSpike(t *testing.T) {
	var peakDuring uint64
	a := &mem.Arena{}
	a.Samples = func(live uint64) {
		if live > peakDuring {
			peakDuring = live
		}
	}
	m := New(a, 8)
	for i := uint64(0); i < 10000; i++ {
		m.Put(key(i), i)
	}
	// During a resize both tables are live, so the observed peak must
	// exceed the steady-state footprint (Figure 7's spikes).
	if peakDuring <= m.FootprintBytes() {
		t.Fatalf("no resize spike: peak %d, steady %d", peakDuring, m.FootprintBytes())
	}
	if a.Live() != m.FootprintBytes() {
		t.Fatalf("steady-state accounting wrong: arena %d map %d",
			a.Live(), m.FootprintBytes())
	}
}

// Property: the map agrees with Go's built-in map under random operations.
func TestMatchesReferenceMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		m := New(nil, 0)
		ref := map[Key]uint64{}
		for op := 0; op < 2000; op++ {
			k := key(uint64(rng.Intn(300)))
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64()
				m.Put(k, v)
				ref[k] = v
			case 2:
				got := m.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 3:
				v, ok := m.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	m := New(nil, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(key(uint64(i&0xFFFF)), uint64(i))
	}
}

func BenchmarkGetHit(b *testing.B) {
	m := New(nil, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		m.Put(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(key(uint64(i & 0xFFFF)))
	}
}
