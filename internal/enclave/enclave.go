// Package enclave models host-level attested execution environments (SGX
// enclaves / TrustZone worlds) for the secure-constellation use case of
// §4.7 and Figure 4b. Per DESIGN.md's substitution table, what the
// constellation needs from the host side is (1) an identity that can be
// attested under some hardware root and (2) the same quote/DH surface the
// S-NIC exposes — both of which this in-process model provides, built on
// the identical attest package primitives.
package enclave

import (
	"fmt"
	"math/big"

	"snic/internal/attest"
)

// Enclave is one host-level secure computation.
type Enclave struct {
	Name string
	hw   *attest.Device
	hash [32]byte
}

// New creates an enclave whose CPU is endorsed by vendor (e.g. Intel for
// SGX) and whose initial code/data measurement covers image.
func New(vendor *attest.Vendor, name string, image []byte) (*Enclave, error) {
	hw, err := attest.NewDevice(vendor, "CPU-"+name)
	if err != nil {
		return nil, err
	}
	var lh attest.LaunchHash
	lh.Add("enclave-image", image)
	lh.Add("enclave-name", []byte(name))
	return &Enclave{Name: name, hw: hw, hash: lh.Sum()}, nil
}

// Measurement returns the enclave's launch measurement (what verifiers
// must expect).
func (e *Enclave) Measurement() [32]byte { return e.hash }

// Attest produces a quote over the enclave measurement for a verifier
// nonce, plus the DH secret for completing the key exchange.
func (e *Enclave) Attest(nonce []byte) (attest.Quote, *big.Int, error) {
	return e.hw.Attest(e.hash, nonce)
}

// Pair mutually attests two endpoints that can each produce quotes, and
// returns an encrypted channel pair keyed by the DH exchange. It is the
// constellation-building primitive: S-NIC functions and enclaves both
// satisfy Attester.
type Attester interface {
	Attest(nonce []byte) (attest.Quote, *big.Int, error)
}

// attesterFunc adapts a closure to Attester.
type attesterFunc func(nonce []byte) (attest.Quote, *big.Int, error)

func (f attesterFunc) Attest(n []byte) (attest.Quote, *big.Int, error) { return f(n) }

// AttesterFunc wraps fn as an Attester (used to adapt snic.Device.AttestNF).
func AttesterFunc(fn func(nonce []byte) (attest.Quote, *big.Int, error)) Attester {
	return attesterFunc(fn)
}

// Pair performs the pairwise attestation of §4.7: a attests to b's
// verifier and vice versa, each under its own vendor root and expected
// measurement, then both derive one shared key (from a's exchange) and
// open channels over it.
func Pair(a Attester, aVendor *attest.Vendor, aHash [32]byte,
	b Attester, bVendor *attest.Vendor, bHash [32]byte,
	nonceA, nonceB []byte) (chanA, chanB *attest.Channel, err error) {

	// b verifies a.
	qa, xa, err := a.Attest(nonceA)
	if err != nil {
		return nil, nil, fmt.Errorf("enclave: a attest: %w", err)
	}
	if err := attest.Verify(aVendor.PublicKey(), qa, aHash, nonceA); err != nil {
		return nil, nil, fmt.Errorf("enclave: verify a: %w", err)
	}
	// a verifies b.
	qb, _, err := b.Attest(nonceB)
	if err != nil {
		return nil, nil, fmt.Errorf("enclave: b attest: %w", err)
	}
	if err := attest.Verify(bVendor.PublicKey(), qb, bHash, nonceB); err != nil {
		return nil, nil, fmt.Errorf("enclave: verify b: %w", err)
	}
	// Complete the DH exchange on a's quote: b plays verifier.
	bPub, bKey, err := attest.VerifierExchange(qa)
	if err != nil {
		return nil, nil, err
	}
	aKey, err := attest.CompleteExchange(bPub, xa)
	if err != nil {
		return nil, nil, fmt.Errorf("enclave: complete exchange: %w", err)
	}
	if aKey != bKey {
		return nil, nil, fmt.Errorf("enclave: key agreement failed")
	}
	chanA, err = attest.NewChannel(aKey)
	if err != nil {
		return nil, nil, err
	}
	chanB, err = attest.NewChannel(bKey)
	if err != nil {
		return nil, nil, err
	}
	return chanA, chanB, nil
}
