// Quickstart: boot an S-NIC, launch a firewall network function on a
// virtual smart NIC, push packets through the virtual packet pipeline,
// attest the function, and tear it down (scrubbing everything).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"snic/internal/attest"
	"snic/internal/device"
	"snic/internal/nf"
	"snic/internal/nicos"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/snic"
	"snic/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build the device through the registry; the factory endorses the
	// S-NIC under a vendor attestation root at "manufacturing time". The
	// quickstart needs the full §4 API (VPPs, launch reports), so it
	// unwraps the adapter.
	n, err := device.New(device.Spec{Model: "snic", Cores: 8, MemBytes: 128 << 20})
	if err != nil {
		return err
	}
	adapter := n.(*device.SNIC)
	dev, vendor := adapter.Underlying(), adapter.Vendor()
	osd := nicos.New(dev)
	fmt.Fprintln(w, "S-NIC up:", dev.Cores(), "programmable cores,",
		adapter.Resources().MemBytes>>20, "MB DRAM")

	// 2. The tenant's firewall policy: drop cleartext HTTP, allow HTTPS
	// (no matching rule means pass). Decisions are cached per flow.
	rng := sim.DeriveRand(42, "quickstart", "traffic")
	rules := []trace.FirewallRule{{
		SrcPortLo: 0, SrcPortHi: 65535,
		DstPortLo: 80, DstPortHi: 80,
		Proto: pkt.ProtoTCP, Drop: true,
	}}
	fw := nf.NewFirewall(rules)

	// 3. NF_create: two cores, 8 MB, steer all TCP port-80/443 traffic in.
	id, rep, err := osd.NFCreate("tenant-firewall", snic.LaunchSpec{
		CoreMask: 0b0011,
		Image:    []byte("firewall-v1 binary image"),
		MemBytes: 8 << 20,
		Rules: []pktio.MatchSpec{
			{Proto: pkt.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
			{Proto: pkt.ProtoTCP, DstPortLo: 443, DstPortHi: 443},
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "nf_launch: id=%d  TLB %.4fms + denylist %.4fms + SHA %.2fms = %.2fms\n",
		id, rep.TLBSetupMS, rep.DenylistMS, rep.DigestMS, rep.TotalMS())

	// 4. Remote attestation: a client verifies the function before
	// trusting it with traffic.
	nonce := []byte("client-nonce-001")
	quote, _, attestMS, err := dev.AttestNF(id, nonce)
	if err != nil {
		return err
	}
	if err := attest.Verify(vendor.PublicKey(), quote, dev.NF(id).Hash, nonce); err != nil {
		return fmt.Errorf("attestation failed: %w", err)
	}
	fmt.Fprintf(w, "nf_attest: verified against vendor root in %.2fms (simulated)\n", attestMS)

	// 5. Traffic: packets arrive on the wire, the switch steers matching
	// ones into the NF's private ring, the NF reads them through its own
	// locked TLB and applies its rules.
	pool := trace.NewICTF(rng.Fork(), 500)
	vpp := dev.NF(id).VPP
	var inPkts, passed, dropped, ignored int
	for i := 0; i < 200; i++ {
		_, p := pool.NextPacket(trace.IMIXLen(rng))
		owner, err := dev.Switch().Deliver(p.Marshal())
		if err != nil {
			return err
		}
		if owner != id {
			ignored++ // not port 80/443: no rule matched
			continue
		}
		inPkts++
		desc, ok := vpp.Pop()
		if !ok {
			return fmt.Errorf("descriptor missing")
		}
		raw := make([]byte, desc.Len)
		if err := dev.NFRead(id, desc.VA, raw); err != nil {
			return err
		}
		parsed, err := pkt.Parse(raw)
		if err != nil {
			return err
		}
		switch fw.Process(&parsed) {
		case nf.Drop:
			dropped++
		default:
			passed++
			// Egress through the packet-output module.
			if err := dev.Switch().Transmit(id, desc.VA, desc.Len, nil); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "traffic: %d delivered to NF (%d passed, %d dropped), %d unmatched\n",
		inPkts, passed, dropped, ignored)
	fmt.Fprintf(w, "firewall cache: %d flows cached, %d hits\n", fw.CacheLen(), fw.Hits)

	// 6. NF_destroy scrubs memory, caches, and registers.
	tr, err := osd.NFDestroy(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "nf_teardown: allowlist %.4fms + scrub %.2fms\n", tr.AllowlistMS, tr.ScrubMS)
	fmt.Fprintln(w, "done: all resources scrubbed and returned")
	return nil
}
