package enclave

import (
	"bytes"
	"testing"

	"snic/internal/attest"
)

func TestEnclaveAttests(t *testing.T) {
	intel, err := attest.NewVendor("Intel", nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(intel, "db-shard-0", []byte("enclave binary"))
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("n0")
	q, _, err := e.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(intel.PublicKey(), q, e.Measurement(), nonce); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementDependsOnImage(t *testing.T) {
	intel, _ := attest.NewVendor("Intel", nil)
	a, _ := New(intel, "x", []byte("image-a"))
	b, _ := New(intel, "x", []byte("image-b"))
	if a.Measurement() == b.Measurement() {
		t.Fatal("different images measure equal")
	}
}

func TestPairEstablishesChannel(t *testing.T) {
	intel, _ := attest.NewVendor("Intel", nil)
	nicVendor, _ := attest.NewVendor("SNIC Vendor", nil)
	e, _ := New(intel, "host-side", []byte("host image"))
	n, _ := New(nicVendor, "nic-side", []byte("nf image")) // stands in for an S-NIC NF

	ca, cb, err := Pair(
		e, intel, e.Measurement(),
		n, nicVendor, n.Measurement(),
		[]byte("nonce-a"), []byte("nonce-b"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross-constellation payload")
	pt, err := cb.Open(ca.Seal(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("channel mismatch")
	}
	// A second pairing of the same parties (fresh nonces) gets its own
	// key: one tunnel cannot open another's traffic (Figure 4a detour).
	_, other, err := Pair(
		e, intel, e.Measurement(),
		n, nicVendor, n.Measurement(),
		[]byte("nonce-c"), []byte("nonce-d"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(ca.Seal(msg)); err == nil {
		t.Fatal("a second tunnel opened the first tunnel's datagram")
	}
}

func TestPairRejectsWrongMeasurement(t *testing.T) {
	intel, _ := attest.NewVendor("Intel", nil)
	nicVendor, _ := attest.NewVendor("SNIC Vendor", nil)
	e, _ := New(intel, "a", []byte("good"))
	n, _ := New(nicVendor, "b", []byte("good"))
	var wrong [32]byte
	if _, _, err := Pair(e, intel, wrong, n, nicVendor, n.Measurement(),
		[]byte("x"), []byte("y")); err == nil {
		t.Fatal("wrong measurement accepted")
	}
}

func TestPairRejectsForeignVendor(t *testing.T) {
	intel, _ := attest.NewVendor("Intel", nil)
	mallory, _ := attest.NewVendor("Mallory", nil)
	nicVendor, _ := attest.NewVendor("SNIC Vendor", nil)
	e, _ := New(intel, "a", []byte("i"))
	n, _ := New(nicVendor, "b", []byte("j"))
	if _, _, err := Pair(e, mallory, e.Measurement(), n, nicVendor, n.Measurement(),
		[]byte("x"), []byte("y")); err == nil {
		t.Fatal("foreign vendor accepted")
	}
}

func TestAttesterFuncAdapter(t *testing.T) {
	intel, _ := attest.NewVendor("Intel", nil)
	e, _ := New(intel, "a", []byte("i"))
	wrapped := AttesterFunc(e.Attest)
	q, _, err := wrapped.Attest([]byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(intel.PublicKey(), q, e.Measurement(), []byte("n")); err != nil {
		t.Fatal(err)
	}
}
