// Regression tests of the commodity SmartNIC models S-NIC is compared
// against. The models live in internal/device; this directory holds
// only tests, which drive them through the exported device.NIC
// interface as a host operator or a co-tenant function would.
package baseline

import (
	"bytes"
	"testing"

	"snic/internal/device"
)

func build(t *testing.T, model string) device.NIC {
	t.Helper()
	dev, err := device.New(device.Spec{Model: model, Cores: 2, MemBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestXkphysGivesRawAccess: on LiquidIO SE-S the xkphys segment maps
// all of DRAM, so a co-tenant reads and overwrites a victim's buffer
// by physical address.
func TestXkphysGivesRawAccess(t *testing.T) {
	dev := build(t, "liquidio-ses")
	victim, err := dev.Launch(device.FuncSpec{Name: "victim", MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := dev.Launch(device.FuncSpec{Name: "attacker", MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(victim, 0, []byte("victim data")); err != nil {
		t.Fatal(err)
	}
	region, _ := dev.Region(victim)
	buf := make([]byte, 11)
	if err := dev.ProbeRead(attacker, region.Start, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("victim data")) {
		t.Fatalf("raw read = %q", buf)
	}
	if err := dev.ProbeWrite(attacker, region.Start, []byte("OWNED")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Read(victim, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "OWNEDm data" {
		t.Fatalf("victim after raw write = %q", buf)
	}
}

// TestAgilioBusAndCrash: one island flooding the shared bus at time 0
// pushes a wait past the watchdog, after which the NIC serves no one.
func TestAgilioBusAndCrash(t *testing.T) {
	dev := build(t, "agilio")
	done, err := dev.BusOp(0, 0)
	if err != nil || done == 0 {
		t.Fatalf("op: done=%d err=%v", done, err)
	}
	crashed := false
	for i := 0; i < 500000 && !crashed; i++ {
		_, err := dev.BusOp(0, 0)
		crashed = err != nil
	}
	if !crashed {
		t.Fatal("watchdog never tripped")
	}
	if _, err := dev.BusOp(1, 0); err == nil {
		t.Fatal("crashed NIC served an op")
	}
}

// TestAgilioCryptoContention: the single crypto unit serves an idle
// request at once and queues a concurrent second one.
func TestAgilioCryptoContention(t *testing.T) {
	dev := build(t, "agilio")
	id, err := dev.Launch(device.FuncSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, w := dev.AcceleratorOp(id, 0); w != 0 {
		t.Fatalf("idle accelerator queued %d cycles", w)
	}
	if _, w := dev.AcceleratorOp(id, 0); w == 0 {
		t.Fatal("contended accelerator did not queue")
	}
}
