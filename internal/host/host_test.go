package host

import (
	"testing"

	"snic/internal/attest"
	"snic/internal/snic"
)

func machine(t *testing.T) (*Machine, *attest.Vendor) {
	t.Helper()
	v, err := attest.NewVendor("V", nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := snic.New(snic.Config{Cores: 4, MemBytes: 32 << 20}, v)
	if err != nil {
		t.Fatal(err)
	}
	return NewMachine(dev), v
}

func upload() Upload {
	return NewUpload("fw", []byte("firewall image v1"), snic.LaunchSpec{
		CoreMask: 0b01, MemBytes: 1 << 20,
	})
}

func TestDeployHonestPath(t *testing.T) {
	m, vend := machine(t)
	u := upload()
	m.Stage(u)
	id, rep, err := m.Deploy(u)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMS() <= 0 {
		t.Fatal("no launch latency")
	}
	// The developer attests and verifies the launch hash covers the image
	// they uploaded: recompute the expected hash the way nf_launch does.
	nonce := []byte("dev-nonce")
	q, _, _, err := m.NIC.AttestNF(id, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(vend.PublicKey(), q, m.NIC.NF(id).Hash, nonce); err != nil {
		t.Fatal(err)
	}
	// Honest staging: image in NIC RAM equals the upload.
	got := make([]byte, len(u.Image))
	if err := m.NIC.NFRead(id, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(u.Image) {
		t.Fatalf("staged image mismatch: %q", got)
	}
}

func TestDeployUnstagedFails(t *testing.T) {
	m, _ := machine(t)
	if _, _, err := m.Deploy(upload()); err == nil {
		t.Fatal("deploy of unstaged image accepted")
	}
}

func TestCorruptHostOSIsDetectedByAttestation(t *testing.T) {
	honest, _ := machine(t)
	u := upload()
	honest.Stage(u)
	idH, _, err := honest.Deploy(u)
	if err != nil {
		t.Fatal(err)
	}
	expectedHash := honest.NIC.NF(idH).Hash

	evil, vend := machine(t)
	evil.Corrupt = true
	evil.Stage(u)
	idE, _, err := evil.Deploy(u)
	if err != nil {
		t.Fatal(err)
	}
	// The corrupted deployment launches fine — but its quote can never
	// verify against the hash of the developer's real function.
	nonce := []byte("n")
	q, _, _, err := evil.NIC.AttestNF(idE, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(vend.PublicKey(), q, expectedHash, nonce); err == nil {
		t.Fatal("verifier accepted a corrupted image")
	}
}

func TestHostWindow(t *testing.T) {
	m, _ := machine(t)
	u := upload()
	m.Stage(u)
	w, err := m.HostWindowFor(u, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(u.Image)+4096 {
		t.Fatalf("window len = %d", w.Len())
	}
	if string(w.Bytes()[:len(u.Image)]) != string(u.Image) {
		t.Fatal("window not pre-filled")
	}
	if _, err := m.HostWindowFor(NewUpload("ghost", nil, snic.LaunchSpec{}), 0); err == nil {
		t.Fatal("window for unstaged upload")
	}
}

func TestExpectedDigestTracksStaging(t *testing.T) {
	m, _ := machine(t)
	u := upload()
	m.Stage(u)
	if m.ExpectedDigest(u) != u.ImageDigest {
		t.Fatal("honest staging changed the digest")
	}
	m2, _ := machine(t)
	m2.Corrupt = true
	m2.Stage(u)
	if m2.ExpectedDigest(u) == u.ImageDigest {
		t.Fatal("corrupt staging kept the digest")
	}
}
