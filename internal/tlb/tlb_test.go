package tlb

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/sim"
)

const page = 1 << 17 // 128 KB

func entry(vaPage, paPage int, perm Perm) Entry {
	return Entry{
		VA:   VAddr(vaPage * page),
		PA:   mem.Addr(paPage * page),
		Size: page,
		Perm: perm,
	}
}

// observed returns a bank of capacity n with its counters attached to
// a fresh registry, and a reader of its miss counter.
func observed(n int) (*Bank, func() uint64) {
	reg := obs.NewRegistry()
	b := NewBank(n)
	b.Observe(reg, "nic", "nf")
	misses := reg.Counter(obs.Label{Device: "nic", Owner: "nf", Component: "tlb", Name: "misses"})
	return b, misses.Value
}

// nop is a Span callback that moves nothing.
func nop(mem.Addr, int, int) error { return nil }

func TestInstallAndTranslate(t *testing.T) {
	b := NewBank(4)
	if err := b.Install(entry(0, 10, PermRW)); err != nil {
		t.Fatal(err)
	}
	if err := b.Install(entry(1, 20, PermRead)); err != nil {
		t.Fatal(err)
	}
	pa, err := b.Translate(VAddr(100), PermRead)
	if err != nil || pa != mem.Addr(10*page+100) {
		t.Fatalf("translate = %#x, %v", pa, err)
	}
	pa, err = b.Translate(VAddr(page+5), PermRead)
	if err != nil || pa != mem.Addr(20*page+5) {
		t.Fatalf("translate = %#x, %v", pa, err)
	}
}

func TestTranslateMiss(t *testing.T) {
	b, misses := observed(2)
	b.Install(entry(0, 1, PermRW))
	if _, err := b.Translate(VAddr(5*page), PermRead); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v", err)
	}
	if misses() != 1 {
		t.Fatalf("misses = %d", misses())
	}
}

func TestTranslatePermission(t *testing.T) {
	b, misses := observed(2)
	b.Install(entry(0, 1, PermRead))
	if _, err := b.Translate(0, PermWrite); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v", err)
	}
	// A permission violation is not a miss.
	if misses() != 0 {
		t.Fatal("permission fault counted as miss")
	}
}

func TestLockPreventsInstall(t *testing.T) {
	b := NewBank(2)
	b.Install(entry(0, 1, PermRW))
	b.Lock()
	if err := b.Install(entry(1, 2, PermRW)); !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v", err)
	}
	if !b.locked {
		t.Fatal("not locked")
	}
	// Translation still works when locked.
	if _, err := b.Translate(0, PermRead); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	b := NewBank(1)
	b.Install(entry(0, 1, PermRW))
	if err := b.Install(entry(1, 2, PermRW)); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectMalformedEntries(t *testing.T) {
	b := NewBank(4)
	bad := []Entry{
		{VA: 0, PA: 0, Size: 0, Perm: PermRW},    // zero size
		{VA: 5, PA: 0, Size: page, Perm: PermRW}, // unaligned VA
		{VA: 0, PA: 5, Size: page, Perm: PermRW}, // unaligned PA
		{VA: 0, PA: 0, Size: page, Perm: 0},      // no perms
	}
	for i, e := range bad {
		if err := b.Install(e); !errors.Is(err, ErrBadEntry) {
			t.Errorf("bad entry %d accepted: %v", i, err)
		}
	}
}

func TestRejectOverlap(t *testing.T) {
	b := NewBank(4)
	b.Install(Entry{VA: 0, PA: 0, Size: 4 * page, Perm: PermRW})
	overlap := Entry{VA: 2 * page, PA: mem.Addr(8 * page), Size: page, Perm: PermRW}
	if err := b.Install(overlap); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("overlap accepted: %v", err)
	}
}

// TestRejectOverlapAtTop installs an entry that ends at 2^64, where
// VA+Size wraps to 0, and then one inside it.
func TestRejectOverlapAtTop(t *testing.T) {
	b := NewBank(4)
	if err := b.Install(Entry{VA: 1 << 63, PA: 0, Size: 1 << 63, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	inner := Entry{VA: VAddr(1<<64 - 128<<10), PA: 0, Size: 128 << 10, Perm: PermRW}
	if err := b.Install(inner); !errors.Is(err, ErrBadEntry) || b.Len() != 1 {
		t.Fatalf("overlap at the top accepted: %v (Len %d)", err, b.Len())
	}
	// A size that does not divide 2^64 can sit aligned at a VA whose
	// range would run past the top.
	if err := b.Install(Entry{VA: VAddr(1<<64 - 1), PA: 0, Size: 3, Perm: PermRW}); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("entry past 2^64 accepted: %v", err)
	}
}

func TestVariablePageSizes(t *testing.T) {
	b := NewBank(3)
	sizes := []uint64{128 << 10, 2 << 20, 32 << 20}
	va := uint64(0)
	pa := uint64(1 << 30)
	for _, s := range sizes {
		va = (va + s - 1) / s * s
		pa = (pa + s - 1) / s * s
		if err := b.Install(Entry{VA: VAddr(va), PA: mem.Addr(pa), Size: s, Perm: PermRW}); err != nil {
			t.Fatalf("size %d: %v", s, err)
		}
		got, err := b.Translate(VAddr(va+s-1), PermRead)
		if err != nil || got != mem.Addr(pa+s-1) {
			t.Fatalf("size %d: translate last byte = %#x, %v", s, got, err)
		}
		va += s
		pa += s
	}
	var mapped uint64
	for _, e := range b.entries {
		mapped += e.Size
	}
	if mapped != (128<<10)+(2<<20)+(32<<20) {
		t.Fatalf("mapped = %d", mapped)
	}
}

func TestDenylistDeniesAndAllows(t *testing.T) {
	d := NewDenylist(page)
	d.Deny(mem.Addr(4*page), 2*page, mem.FirstNF)
	if !d.Denied(mem.Addr(4*page), 1) || !d.Denied(mem.Addr(5*page+10), 1) {
		t.Fatal("denied range not detected")
	}
	if d.Denied(mem.Addr(3*page), page) {
		t.Fatal("false positive below range")
	}
	// Straddling access touches a denied frame.
	if !d.Denied(mem.Addr(3*page+page/2), page) {
		t.Fatal("straddling access not detected")
	}
	d.AllowOwner(mem.FirstNF)
	if d.Denied(mem.Addr(4*page), 2*page) {
		t.Fatal("allow did not clear")
	}
}

func TestDenylistAllowOwner(t *testing.T) {
	d := NewDenylist(page)
	d.Deny(0, 2*page, mem.FirstNF)
	d.Deny(mem.Addr(10*page), page, mem.FirstNF+1)
	if n := d.AllowOwner(mem.FirstNF); n != 2 {
		t.Fatalf("allowlisted %d frames", n)
	}
	if d.Denied(0, 2*page) {
		t.Fatal("owner frames still denied")
	}
	if !d.Denied(mem.Addr(10*page), 1) {
		t.Fatal("other owner's frames cleared")
	}
}

func TestGuardedBankRejectsDeniedFill(t *testing.T) {
	d := NewDenylist(page)
	d.Deny(mem.Addr(8*page), page, mem.FirstNF)
	g := NewGuardedBank(8, d)
	// Mapping to an NF-owned physical page must be rejected at fill time.
	err := g.Install(entry(0, 8, PermRW))
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("denied fill accepted: %v", err)
	}
	// A mapping to free memory is fine.
	if err := g.Install(entry(0, 2, PermRW)); err != nil {
		t.Fatal(err)
	}
	if err := g.Span(0, 1, PermRead, nop); err != nil {
		t.Fatal(err)
	}
}

func TestGuardedBankRevokesStaleMapping(t *testing.T) {
	d := NewDenylist(page)
	g := NewGuardedBank(8, d)
	if err := g.Install(entry(0, 3, PermRW)); err != nil {
		t.Fatal(err)
	}
	// The OS held a valid mapping; then an NF launched over that memory.
	d.Deny(mem.Addr(3*page), page, mem.FirstNF)
	if err := g.Span(0, 1, PermRead, nop); !errors.Is(err, ErrDenied) {
		t.Fatalf("stale mapping still usable: %v", err)
	}
	// A two-frame mapping whose second frame an NF takes after install:
	// the first frame stays usable, but a span reaching the second is
	// refused whole, even though its first byte is clean.
	if err := g.Install(Entry{VA: 4 * page, PA: 6 * page, Size: 2 * page, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	d.Deny(mem.Addr(7*page), page, mem.FirstNF)
	if err := g.Span(4*page, page, PermRead, nop); err != nil {
		t.Fatalf("clean first frame refused: %v", err)
	}
	moved := 0
	err := g.Span(5*page-8, 16, PermRead, func(mem.Addr, int, int) error { moved++; return nil })
	if !errors.Is(err, ErrDenied) || moved != 0 {
		t.Fatalf("span into a denied frame: err %v, %d pieces moved", err, moved)
	}
}

func TestGuardedBankEvict(t *testing.T) {
	d := NewDenylist(page)
	g := NewGuardedBank(8, d)
	g.Install(entry(0, 3, PermRW))
	if !g.Evict(VAddr(10)) {
		t.Fatal("evict failed")
	}
	if g.Evict(VAddr(10)) {
		t.Fatal("double evict succeeded")
	}
	if err := g.Span(0, 1, PermRead, nop); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v", err)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	b := NewBank(2)
	b.Install(entry(0, 1, PermRW))
	es := b.Entries()
	es[0].PA = 0xDEAD0000
	if pa, _ := b.Translate(0, PermRead); pa == 0xDEAD0000 {
		t.Fatal("Entries exposed internal state")
	}
}

// Property: for any set of non-overlapping entries, every address inside
// a mapping translates to the right physical byte, and every address
// outside all mappings misses.
func TestTranslationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		b := NewBank(16)
		type m struct {
			va   uint64
			pa   uint64
			size uint64
		}
		var installed []m
		va := uint64(0)
		for i := 0; i < 8; i++ {
			size := uint64(1) << (12 + rng.Intn(8)) // 4KB..512KB
			va = (va + size - 1) / size * size
			if rng.Intn(3) == 0 {
				va += size // leave a hole
			}
			pa := (uint64(rng.Intn(1<<12)) << 20) / size * size
			if err := b.Install(Entry{VA: VAddr(va), PA: mem.Addr(pa), Size: size, Perm: PermRW}); err != nil {
				return false
			}
			installed = append(installed, m{va, pa, size})
			va += size
		}
		for trial := 0; trial < 200; trial++ {
			q := uint64(rng.Intn(int(va + 1<<20)))
			var want *m
			for i := range installed {
				e := &installed[i]
				if q >= e.va && q < e.va+e.size {
					want = e
					break
				}
			}
			got, err := b.Translate(VAddr(q), PermRead)
			if want == nil {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil || uint64(got) != want.pa+(q-want.va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Span walks the entries it crosses and moves one piece per entry, with
// no allocation of its own.
func TestSpanPiecesAndAllocs(t *testing.T) {
	b := NewBank(4)
	b.Install(entry(0, 9, PermRW))
	b.Install(entry(1, 3, PermRW))
	type piece struct {
		pa     mem.Addr
		off, n int
	}
	var got []piece
	if err := b.Span(page-4, 10, PermRead, func(pa mem.Addr, off, n int) error {
		got = append(got, piece{pa, off, n})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []piece{{9*page + page - 4, 0, 4}, {3 * page, 4, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pieces = %v, want %v", got, want)
	}
	var sum int
	allocs := testing.AllocsPerRun(100, func() {
		b.Span(page-4, 10, PermRead, func(pa mem.Addr, off, n int) error {
			sum += n
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("Span allocates %.0f times per call", allocs)
	}
}

// FuzzSpan checks Span against per-byte Translate on a random bank: the
// span succeeds exactly when every byte translates, and its pieces cover
// the span in order at each byte's physical address. The guarded form,
// with frames denylisted after install, must refuse exactly when some
// byte also lands in a denied frame. A refused span moves nothing.
func FuzzSpan(f *testing.F) {
	const unit, frame = 16, 64 // smallest page and denylist frame, bytes
	f.Fuzz(func(t *testing.T, layout []byte, va, n uint16, deny uint64, write bool) {
		d := NewDenylist(frame)
		g := NewGuardedBank(8, d)
		next := uint64(0)
		for i := 0; i+1 < len(layout) && g.Bank.Len() < 8; i += 2 {
			size := uint64(unit) << (layout[i] & 3)
			next = (next + size - 1) / size * size
			if layout[i]&4 != 0 {
				next += size // leave a hole
			}
			perm := Perm(layout[i] >> 3 & 3)
			if perm == 0 {
				perm = PermRW
			}
			e := Entry{VA: VAddr(next), PA: mem.Addr(uint64(layout[i+1]) * size), Size: size, Perm: perm}
			if err := g.Install(e); err != nil {
				t.Fatal(err)
			}
			next += size
		}
		for pa := uint64(0); pa < 256*unit<<3; pa += frame { // every PA an entry can reach
			if deny>>(pa/frame%64)&1 != 0 {
				d.Deny(mem.Addr(pa), frame, mem.FirstNF)
			}
		}
		need := PermRead
		if write {
			need = PermWrite
		}
		start, size := VAddr(va%2048), int(n%1024)

		// The oracle: translate byte by byte.
		want := make([]mem.Addr, size)
		var wantErr error
		denied := false
		for i := range want {
			pa, err := g.Bank.Translate(start+VAddr(i), need)
			if err != nil {
				wantErr = err
				break
			}
			want[i] = pa
			denied = denied || d.Denied(pa, 1)
		}

		check := func(name string, span func(VAddr, int, Perm, func(mem.Addr, int, int) error) error, ok bool) {
			covered := 0
			err := span(start, size, need, func(pa mem.Addr, off, k int) error {
				if off != covered || k <= 0 {
					t.Fatalf("%s: piece at offset %d of length %d after %d bytes", name, off, k, covered)
				}
				for j := 0; j < k; j++ {
					if pa+mem.Addr(j) != want[off+j] {
						t.Fatalf("%s: byte %d at %#x, Translate says %#x", name, off+j, pa+mem.Addr(j), want[off+j])
					}
				}
				covered += k
				return nil
			})
			if (err == nil) != ok {
				t.Fatalf("%s: err %v, want success %v", name, err, ok)
			}
			if err != nil && covered != 0 {
				t.Fatalf("%s: refused span moved %d bytes", name, covered)
			}
			if err == nil && covered != size {
				t.Fatalf("%s: pieces cover %d of %d bytes", name, covered, size)
			}
		}
		check("Bank.Span", g.Bank.Span, wantErr == nil)
		if wantErr != nil {
			if err := g.Bank.Span(start, size, need, nop); !errors.Is(err, wantErr) {
				t.Fatalf("Bank.Span: err %v, first faulting byte says %v", err, wantErr)
			}
		}
		check("GuardedBank.Span", g.Span, wantErr == nil && !denied)
	})
}
