package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func newPhys(t *testing.T, total, frame uint64) *Physical {
	t.Helper()
	p, err := NewPhysical(total, frame)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ownedBytes counts the bytes of the frames owner holds.
func ownedBytes(p *Physical, owner Owner) uint64 {
	var n uint64
	for _, o := range p.owner {
		if o == owner {
			n += p.frameSize
		}
	}
	return n
}

func TestNewPhysicalGeometry(t *testing.T) {
	if _, err := NewPhysical(1024, 100); err == nil {
		t.Fatal("accepted non-divisible geometry")
	}
	if _, err := NewPhysical(0, 64); err == nil {
		t.Fatal("accepted zero size")
	}
	p := newPhys(t, 1024, 64)
	if p.NumFrames() != 16 || p.Size() != 1024 || p.FrameSize() != 64 {
		t.Fatalf("bad geometry: %d frames, %d bytes", p.NumFrames(), p.Size())
	}
}

func TestAllocAssignsOwnership(t *testing.T) {
	p := newPhys(t, 1024, 64)
	r, err := p.Alloc(FirstNF, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 4 {
		t.Fatalf("got %d frames", r.Frames)
	}
	for f := uint64(r.Start) / 64; f < uint64(r.Start)/64+4; f++ {
		if p.owner[f] != FirstNF {
			t.Fatalf("frame %d not owned", f)
		}
	}
	if n := ownedBytes(p, FirstNF); n != 256 {
		t.Fatalf("owned bytes = %d", n)
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := newPhys(t, 256, 64)
	if _, err := p.Alloc(FirstNF, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(FirstNF+1, 1); err == nil {
		t.Fatal("allocated from full memory")
	}
}

func TestAllocToFreeRejected(t *testing.T) {
	p := newPhys(t, 256, 64)
	if _, err := p.Alloc(Free, 1); err == nil {
		t.Fatal("allocated to Free owner")
	}
}

func TestAllocFindsFragmentedHole(t *testing.T) {
	p := newPhys(t, 64*8, 64)
	a, _ := p.Alloc(FirstNF, 2)
	b, _ := p.Alloc(FirstNF+1, 2)
	c, _ := p.Alloc(FirstNF+2, 2)
	_ = a
	_ = c
	p.ReleaseAll(FirstNF + 1)
	// The hole left by b is 2 frames; a 2-frame allocation must find it.
	r, err := p.Alloc(FirstNF+3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != b.Start {
		t.Fatalf("did not reuse hole: got %d want %d", r.Start, b.Start)
	}
}

func TestReleaseWrongOwnerRejected(t *testing.T) {
	p := newPhys(t, 256, 64)
	p.Alloc(FirstNF, 2)
	if n := p.ReleaseAll(FirstNF + 1); n != 0 {
		t.Fatalf("released %d bytes owned by someone else", n)
	}
	// Ownership must be untouched after the release of another owner.
	if ownedBytes(p, FirstNF) != 128 {
		t.Fatal("release of another owner modified ownership")
	}
}

func TestReleaseScrubs(t *testing.T) {
	p := newPhys(t, 256, 64)
	r, _ := p.Alloc(FirstNF, 1)
	secret := []byte("translation rules live here")
	if err := p.Write(r.Start, secret); err != nil {
		t.Fatal(err)
	}
	p.ReleaseAll(FirstNF)
	got := make([]byte, len(secret))
	if err := p.Read(r.Start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatalf("residue after scrub: %q", got)
	}
}

func TestReleaseAllScrubsEverything(t *testing.T) {
	p := newPhys(t, 1024, 64)
	r1, _ := p.Alloc(FirstNF, 2)
	r2, _ := p.Alloc(FirstNF, 3)
	p.Write(r1.Start, []byte{1})
	p.Write(r2.Start, []byte{2})
	n := p.ReleaseAll(FirstNF)
	if n != 5*64 {
		t.Fatalf("scrubbed %d bytes, want %d", n, 5*64)
	}
	if ownedBytes(p, FirstNF) != 0 {
		t.Fatal("frames still owned after ReleaseAll")
	}
	var b [1]byte
	p.Read(r1.Start, b[:])
	if b[0] != 0 {
		t.Fatal("residue after ReleaseAll")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := newPhys(t, 1024, 64)
	data := []byte("spans multiple frames because it is longer than sixty-four bytes, yes")
	if err := p.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch")
	}
}

func TestReadUnbackedIsZero(t *testing.T) {
	p := newPhys(t, 1024, 64)
	b := make([]byte, 128)
	for i := range b {
		b[i] = 0xFF
	}
	if err := p.Read(0, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("unbacked byte %d = %d", i, v)
		}
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	p := newPhys(t, 256, 64)
	if err := p.Write(250, make([]byte, 16)); err != ErrOutOfRange {
		t.Fatalf("write: got %v", err)
	}
	if err := p.Read(256, make([]byte, 1)); err != ErrOutOfRange {
		t.Fatalf("read: got %v", err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	p := newPhys(t, 256, 64)
	// Straddle a frame boundary on purpose.
	if err := p.WriteU64(60, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := p.Read(60, b[:]); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(b[:]); v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("got %#x", v)
	}
}

func TestOwnedRanges(t *testing.T) {
	p := newPhys(t, 64*10, 64)
	p.Alloc(FirstNF, 2)
	mid, _ := p.Alloc(FirstNF+1, 1)
	p.Alloc(FirstNF, 3)
	_ = mid
	rs := p.OwnedRanges(FirstNF)
	if len(rs) != 2 || rs[0].Frames != 2 || rs[1].Frames != 3 {
		t.Fatalf("ranges = %+v", rs)
	}
}

// Property: write-then-read round-trips at arbitrary (valid) offsets.
func TestReadWriteProperty(t *testing.T) {
	p := newPhys(t, 1<<16, 256)
	f := func(off uint16, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		pa := Addr(off)
		if uint64(pa)+uint64(len(data)) > p.Size() {
			return true
		}
		if err := p.Write(pa, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := p.Read(pa, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocation never double-assigns a frame.
func TestSingleOwnerInvariant(t *testing.T) {
	p := newPhys(t, 64*64, 64)
	owners := []Owner{FirstNF, FirstNF + 1, FirstNF + 2}
	alloced := map[Owner][]Range{}
	for i := 0; i < 40; i++ {
		o := owners[i%len(owners)]
		if r, err := p.Alloc(o, uint64(1+i%3)); err == nil {
			alloced[o] = append(alloced[o], r)
		}
		if i%7 == 6 {
			p.ReleaseAll(o)
			alloced[o] = nil
		}
		// Invariant: every frame of every live range still owned by its owner.
		for o2, rs := range alloced {
			for _, r := range rs {
				first := uint64(r.Start) / p.FrameSize()
				for f := first; f < first+r.Frames; f++ {
					if p.owner[f] != o2 {
						t.Fatalf("frame %d stolen from %d", f, o2)
					}
				}
			}
		}
	}
}

func TestArenaAccounting(t *testing.T) {
	var a Arena
	a.Alloc(SegHeap, 100)
	a.Alloc(SegText, 10)
	if a.Live() != 110 {
		t.Fatalf("live = %d", a.Live())
	}
	a.Free(SegHeap, 40)
	if a.Live() != 70 || a.segs[SegHeap].live != 60 {
		t.Fatalf("live = %d heap = %d", a.Live(), a.segs[SegHeap].live)
	}
	if pr := a.Profile(); pr.Heap != 100 || pr.Total() != 110 {
		t.Fatalf("peaks: heap=%d total=%d", pr.Heap, pr.Total())
	}
}

func TestArenaUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	var a Arena
	a.Free(SegHeap, 1)
}

func TestArenaSamples(t *testing.T) {
	var got []uint64
	a := Arena{Samples: func(live uint64) { got = append(got, live) }}
	a.Alloc(SegHeap, 5)
	a.Alloc(SegHeap, 5)
	a.Free(SegHeap, 3)
	want := []uint64{5, 10, 7}
	if len(got) != len(want) {
		t.Fatalf("samples = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
}

func TestArenaProfile(t *testing.T) {
	var a Arena
	a.Alloc(SegText, 1)
	a.Alloc(SegData, 2)
	a.Alloc(SegCode, 3)
	a.Alloc(SegHeap, 4)
	pr := a.Profile()
	if pr.Text != 1 || pr.Data != 2 || pr.Code != 3 || pr.Heap != 4 || pr.Total() != 10 {
		t.Fatalf("profile = %+v", pr)
	}
}

func TestSegmentString(t *testing.T) {
	if SegHeap.String() != "heap&stack" || SegText.String() != "text" {
		t.Fatal("segment names wrong")
	}
}
