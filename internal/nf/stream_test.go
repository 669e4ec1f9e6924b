package nf

import (
	"testing"

	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/trace"
)

// TestPktStreamNextBatchMatchesNext drives two identically-seeded
// packet streams — one through Next, one through NextBatch at awkward
// buffer sizes — and demands the exact same op sequence. Each stream
// gets its own pool built from the same seed, because the pool's RNG
// draws are part of the sequence under test: batching must not move a
// packet's flow draw earlier or later than Next would.
func TestPktStreamNextBatchMatchesNext(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			cfg := SuiteConfig{Seed: 7}
			cfg.defaults()
			mkStream := func() cpu.Stream {
				f, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pool := trace.NewICTF(sim.NewRand(99), 2000)
				return f.NewStream(sim.NewRand(3), pool, mem.Addr(1)<<32)
			}
			ref := mkStream()
			bat, ok := mkStream().(cpu.BatchStream)
			if !ok {
				t.Fatalf("%s stream does not implement cpu.BatchStream", name)
			}
			buf := make([]cpu.Op, 5) // smaller than most packets' op count
			var stash []cpu.Op
			for i := 0; i < 5000; i++ {
				if len(stash) == 0 {
					n := bat.NextBatch(buf)
					if n == 0 {
						t.Fatalf("op %d: NextBatch returned 0 from an infinite stream", i)
					}
					stash = append(stash, buf[:n]...)
				}
				want, ok := ref.Next()
				if !ok {
					t.Fatalf("op %d: Next ended on an infinite stream", i)
				}
				if got := stash[0]; got != want {
					t.Fatalf("%s op %d: batch %+v != next %+v", name, i, got, want)
				}
				stash = stash[1:]
			}
		})
	}
}

// TestPktStreamBatchStopsAtPacketBoundary pins the shared-pool safety
// property the batch path relies on: one NextBatch call never spans a
// packet boundary, so the pool's next flow draw happens no earlier than
// it would under Next.
func TestPktStreamBatchStopsAtPacketBoundary(t *testing.T) {
	cfg := SuiteConfig{Seed: 7}
	cfg.defaults()
	f, err := New("FW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := trace.NewICTF(sim.NewRand(99), 2000)
	s, ok := f.NewStream(sim.NewRand(3), pool, mem.Addr(1)<<32).(*pktStream)
	if !ok {
		t.Fatal("Firewall stream is not a pktStream")
	}
	buf := make([]cpu.Op, 4096) // far larger than any packet's op count
	for i := 0; i < 200; i++ {
		n := s.NextBatch(buf)
		if n == 0 {
			t.Fatal("NextBatch returned 0")
		}
		if s.qi != len(s.queue) {
			t.Fatalf("call %d: batch of %d left %d ops of the packet behind",
				i, n, len(s.queue)-s.qi)
		}
		if n == len(buf) {
			t.Fatalf("call %d: batch filled the whole %d-op buffer: packet boundary ignored", i, n)
		}
	}
}

// TestDPIStreamsShareRowCDF pins the DPI's build-once row sampler: each
// of two streams from one *DPI — the second reusing the first one's
// CDF — must draw exactly the graph rows that a freshly built
// sim.NewZipf over the stream's forked RNG draws, the derivation every
// stream used before the CDF was shared.
func TestDPIStreamsShareRowCDF(t *testing.T) {
	f, err := New("DPI", SuiteConfig{DPIPatterns: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := f.(*DPI)
	region := d.auto.MemoryBytes()
	rows := int(region / 64)
	if rows > 1<<16 {
		rows = 1 << 16
	}
	scale := (region / 64) / uint64(rows)
	base := mem.Addr(1) << 32
	graphBase := base + mem.Addr(pktSlot*64)
	for _, seed := range []uint64{3, 4} {
		pool := trace.NewICTF(sim.NewRand(99), 2000)
		s := d.NewStream(sim.NewRand(seed), pool, base)
		oracle := sim.NewZipf(sim.NewRand(seed).Fork(), rows, 1.2)
		drawn := 0
		for drawn < 5000 {
			op, _ := s.Next()
			if op.Kind != cpu.Load || op.Addr < graphBase {
				continue // packet-buffer reads
			}
			want := graphBase + mem.Addr(uint64(oracle.Next())*scale*64)
			if op.Addr != want {
				t.Fatalf("seed %d, row %d: stream loads %#x, fresh sampler says %#x", seed, drawn, op.Addr, want)
			}
			drawn++
		}
	}
}

// TestStreamNextDoesNotAllocate: after warm-up, producing ops costs no
// allocation — every stream reuses its op queue and touches buffer.
// Only Firewall's and LB's first-seen flow sets may still grow, so the
// bound is a small average rather than zero.
func TestStreamNextDoesNotAllocate(t *testing.T) {
	const ops = 1000
	for _, name := range Names {
		f, err := New(name, TestScale(7))
		if err != nil {
			t.Fatal(err)
		}
		s := f.NewStream(sim.NewRand(3), trace.NewICTF(sim.NewRand(99), 2000), mem.Addr(1)<<32)
		for i := 0; i < 200000; i++ {
			s.Next()
		}
		perOp := testing.AllocsPerRun(20, func() {
			for i := 0; i < ops; i++ {
				s.Next()
			}
		}) / ops
		if perOp > 0.05 {
			t.Errorf("%s: %.3f allocations per Next after warm-up, want <= 0.05", name, perOp)
		}
	}
}
