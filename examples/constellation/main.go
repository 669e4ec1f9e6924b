// Constellation: the Figure 4 use cases. A TLS-middlebox network function
// on an S-NIC and a host-level enclave mutually attest (under different
// hardware vendors), derive a shared key, and exchange traffic over the
// untrusted datacenter fabric. A nosy datacenter operator who tampers
// with a datagram is detected.
//
//	go run ./examples/constellation
package main

import (
	"fmt"
	"io"
	"log"
	"math/big"
	"os"

	"snic/internal/attest"
	"snic/internal/device"
	"snic/internal/enclave"
	"snic/internal/snic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Two independent hardware roots: the NIC vendor and the CPU vendor.
	nicVendor, err := attest.NewVendor("Acme Silicon", nil)
	if err != nil {
		return err
	}
	cpuVendor, err := attest.NewVendor("Intel-like CPU Co", nil)
	if err != nil {
		return err
	}

	// The S-NIC runs the tenant's intrusion-detection middlebox; the
	// registry builds it under the NIC vendor's attestation root.
	n, err := device.New(device.Spec{
		Model: "snic", Cores: 4, MemBytes: 32 << 20, Vendor: nicVendor,
	})
	if err != nil {
		return err
	}
	dev := n.(*device.SNIC).Underlying()
	rep, err := dev.Launch(snic.LaunchSpec{
		CoreMask: 0b01,
		Image:    []byte("ids-middlebox-v3"),
		MemBytes: 4 << 20,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "S-NIC middlebox launched, id", rep.ID)

	// The host runs the tenant's database shard inside an enclave.
	db, err := enclave.New(cpuVendor, "db-shard-0", []byte("db-shard binary"))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "host enclave created:", db.Name)

	// Pairwise attestation (§4.7): each side verifies the other's quote
	// against the expected measurement and its vendor's root, then both
	// derive one shared key.
	nfAttester := enclave.AttesterFunc(func(nonce []byte) (attest.Quote, *big.Int, error) {
		q, x, _, err := dev.AttestNF(rep.ID, nonce)
		return q, x, err
	})
	chNF, chDB, err := enclave.Pair(
		nfAttester, nicVendor, dev.NF(rep.ID).Hash,
		db, cpuVendor, db.Measurement(),
		[]byte("nonce-nf-1"), []byte("nonce-db-1"))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "mutual attestation complete; encrypted channel established")

	// Traffic flows through the untrusted fabric: the middlebox forwards
	// scan results to the database over the channel.
	report := []byte(`{"flow":"10.0.0.1:443","verdict":"clean","sig_hits":0}`)
	wire := chNF.Seal(report)
	got, err := chDB.Open(wire)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "enclave received middlebox report: %s\n", got)

	// The datacenter operator snoops the bus and flips a byte in transit.
	wire2 := chNF.Seal([]byte(`{"flow":"10.0.0.2:443","verdict":"clean"}`))
	wire2[len(wire2)-3] ^= 0x40
	if _, err := chDB.Open(wire2); err == nil {
		return fmt.Errorf("tampered datagram accepted")
	}
	fmt.Fprintln(w, "operator tampering detected and rejected (AEAD auth failure)")

	// A counterfeit "middlebox" on unendorsed hardware cannot join the
	// constellation.
	rogueVendor, err := attest.NewVendor("Rogue Fab", nil)
	if err != nil {
		return err
	}
	rogue, err := enclave.New(rogueVendor, "fake-middlebox", []byte("ids-middlebox-v3"))
	if err != nil {
		return err
	}
	_, _, err = enclave.Pair(
		rogue, nicVendor /* claims to be an Acme NIC */, dev.NF(rep.ID).Hash,
		db, cpuVendor, db.Measurement(),
		[]byte("nonce-x"), []byte("nonce-y"))
	if err == nil {
		return fmt.Errorf("rogue hardware joined the constellation")
	}
	fmt.Fprintln(w, "counterfeit middlebox rejected:", err)
	return nil
}
