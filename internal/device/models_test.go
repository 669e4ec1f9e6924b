package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/snic"
)

// metaRecord decodes allocator metadata record i straight from DRAM —
// nothing more than a management read, as the §3.3 scans need.
func metaRecord(t *testing.T, dev NIC, i int) (owner FuncID, addr mem.Addr, n, tag uint32) {
	t.Helper()
	var rec [metaEntryBytes]byte
	if err := dev.MgmtRead(mem.Addr(i*metaEntryBytes), rec[:]); err != nil {
		t.Fatal(err)
	}
	lenTag := binary.LittleEndian.Uint64(rec[16:])
	return FuncID(binary.LittleEndian.Uint64(rec[0:])), mem.Addr(binary.LittleEndian.Uint64(rec[8:])),
		uint32(lenTag), uint32(lenTag >> 32)
}

// TestLiquidIOMetadataInDRAM: every reservation and every packet buffer
// leaves an (owner, addr, len, tag) record in the DRAM table at address
// 0, and the heap starts right after the table's 1024 records.
func TestLiquidIOMetadataInDRAM(t *testing.T) {
	for _, model := range []string{"liquidio-ses", "liquidio-seum"} {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			id, err := dev.Launch(FuncSpec{
				Name: "web", MemBytes: 1000,
				Rules: []pktio.MatchSpec{{Proto: pkt.ProtoTCP, DstPortLo: 443, DstPortHi: 443}},
			})
			if err != nil {
				t.Fatal(err)
			}
			region, _ := dev.Region(id)
			if region.Start != metaCap*metaEntryBytes {
				t.Fatalf("heap starts at %#x, want %#x", region.Start, metaCap*metaEntryBytes)
			}
			frame := (&pkt.Packet{
				Tuple: pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 443, Proto: pkt.ProtoTCP},
			}).Marshal()
			if _, err := dev.Inject(frame); err != nil {
				t.Fatal(err)
			}
			if o, a, n, tag := metaRecord(t, dev, 0); o != id || a != region.Start || n != 1000 || tag != tagGeneric {
				t.Errorf("record 0 = (%d, %#x, %d, %#x)", o, a, n, tag)
			}
			// The packet buffer follows the reservation at 64-byte rounding.
			if o, a, n, tag := metaRecord(t, dev, 1); o != id || a != region.Start+1024 ||
				n != uint32(len(frame)) || tag != tagPacket {
				t.Errorf("record 1 = (%d, %#x, %d, %#x)", o, a, n, tag)
			}
			if _, _, n, _ := metaRecord(t, dev, 2); n != 0 {
				t.Errorf("record 2 written (len %d)", n)
			}
		})
	}
}

// TestAgilioWatchdogAndCrypto: a flooding island pushes a wait past the
// watchdog, after which the NIC serves nothing; the single crypto unit
// queues a second concurrent operation.
func TestAgilioWatchdogAndCrypto(t *testing.T) {
	dev := build(t, "agilio")
	if done, err := dev.BusOp(0, 0); err != nil || done != busOpCost {
		t.Fatalf("first op done=%d err=%v", done, err)
	}
	ops := 1
	for ; ops < 500000; ops++ {
		if _, err := dev.BusOp(0, 0); err != nil {
			break
		}
	}
	if !dev.(*agilio).bus.crashed {
		t.Fatalf("watchdog never tripped after %d ops", ops)
	}
	if want := watchdogCycles/busOpCost + 1; ops != want {
		t.Errorf("crashed after %d ops, want %d", ops, want)
	}
	if _, err := dev.BusOp(1, 0); err == nil {
		t.Fatal("crashed NIC served an op")
	}

	id, _ := dev.Launch(FuncSpec{})
	if _, w := dev.AcceleratorOp(id, 0); w != 0 {
		t.Fatalf("idle accelerator queued %d cycles", w)
	}
	if _, w := dev.AcceleratorOp(id, 0); w != accelOpCost {
		t.Fatalf("contended accelerator queued %d cycles, want %d", w, accelOpCost)
	}
}

// TestBlueFieldWorlds: trustlets live in the secure carve-out, which
// the normal world cannot touch (even by straddling its base) and the
// secure-world OS reads freely.
func TestBlueFieldWorlds(t *testing.T) {
	dev := build(t, "bluefield")
	secureBase := mem.Addr(dev.Resources().MemBytes / 4 * 3)
	victim, _ := dev.Launch(FuncSpec{Name: "victim", MemBytes: 4096})
	attacker, _ := dev.Launch(FuncSpec{Name: "attacker", MemBytes: 4096})
	if err := dev.Write(victim, 0, []byte("trusted state")); err != nil {
		t.Fatal(err)
	}
	region, _ := dev.Region(victim)
	if region.Start != secureBase {
		t.Fatalf("first trustlet at %#x, want the carve-out base %#x", region.Start, secureBase)
	}
	if r, _ := dev.Region(attacker); r.Start != secureBase+4096 {
		t.Fatalf("second trustlet at %#x, want %#x", r.Start, secureBase+4096)
	}
	buf := make([]byte, 13)
	for _, pa := range []mem.Addr{region.Start, secureBase - 8} {
		if err := dev.ProbeRead(attacker, pa, buf); !errors.Is(err, errTrustZone) {
			t.Errorf("normal-world read at %#x: %v", pa, err)
		}
		if err := dev.ProbeWrite(attacker, pa, buf); !errors.Is(err, errTrustZone) {
			t.Errorf("normal-world write at %#x: %v", pa, err)
		}
	}
	if err := dev.ProbeRead(attacker, secureBase-13, buf); err != nil {
		t.Errorf("normal-world read of normal memory: %v", err)
	}
	if err := dev.MgmtRead(region.Start, buf); err != nil || !bytes.Equal(buf, []byte("trusted state")) {
		t.Fatalf("secure-world read = %q, %v", buf, err)
	}
}

// TestBlueFieldCarveOut: the secure region is the top quarter of DRAM
// and its allocator is bump-only, so a trustlet larger than what is
// left is refused and teardown never gives space back.
func TestBlueFieldCarveOut(t *testing.T) {
	dev, err := New(Spec{Model: "bluefield", Cores: 2, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Launch(FuncSpec{MemBytes: 2 << 20}); err == nil {
		t.Fatal("trustlet larger than the 1 MB carve-out accepted")
	}
	id, err := dev.Launch(FuncSpec{MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Teardown(id); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Launch(FuncSpec{MemBytes: 64}); err == nil {
		t.Fatal("bump-only secure allocator reused a torn-down trustlet's space")
	}
}

// TestSNICCoreTableFollowsDevice: the adapter picks cores from the
// device's own table, so a function launched through Underlying()
// is seen by the next auto-placed Launch and by FreeCores.
func TestSNICCoreTableFollowsDevice(t *testing.T) {
	s := build(t, "snic").(*SNIC)
	if _, err := s.Underlying().Launch(snic.LaunchSpec{
		CoreMask: 1, Image: []byte("direct"), MemBytes: s.FrameSize(),
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeCores(); got != 1 {
		t.Fatalf("FreeCores = %d after a direct launch on core 0, want 1", got)
	}
	id, err := s.Launch(FuncSpec{})
	if err != nil {
		t.Fatalf("auto-placed launch: %v", err)
	}
	if cores := s.Underlying().NF(id).Cores; !slices.Equal(cores, []int{1}) {
		t.Fatalf("auto-placed launch bound cores %v, want [1]", cores)
	}
	if got := s.FreeCores(); got != 0 {
		t.Fatalf("FreeCores = %d with both cores bound", got)
	}
	if _, err := s.Launch(FuncSpec{}); !errors.Is(err, ErrNoCores) {
		t.Fatalf("launch with no free core: %v, want ErrNoCores", err)
	}
}
