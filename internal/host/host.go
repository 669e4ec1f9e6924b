// Package host models the machine the S-NIC is plugged into, completing
// the §4.1 launch path: "a remote developer first uploads the function's
// initial code and data to the RAM of a datacenter host... The on-NIC OS
// uses DMA to transfer the initial function state from host RAM to on-NIC
// RAM," after which the NIC OS invokes nf_launch.
//
// The host OS is untrusted (same trust class as the NIC OS): it can stage
// the wrong image or corrupt it in host RAM — and remote attestation is
// what catches that, which the tests demonstrate end to end.
package host

import (
	"crypto/sha256"
	"fmt"

	"snic/internal/dma"
	"snic/internal/nicos"
	"snic/internal/pagealloc"
	"snic/internal/snic"
)

// Upload is a developer's staged function: image bytes plus the resource
// request and the measurement the developer expects attestation to show.
type Upload struct {
	Name        string
	Image       []byte
	Spec        snic.LaunchSpec // Image field is filled by staging
	ImageDigest [32]byte        // developer-computed, carried out of band
}

// NewUpload packages an image and spec, computing the digest the
// developer will later demand from attestation.
func NewUpload(name string, image []byte, spec snic.LaunchSpec) Upload {
	return Upload{
		Name:        name,
		Image:       append([]byte(nil), image...),
		Spec:        spec,
		ImageDigest: sha256.Sum256(image),
	}
}

// Machine is one server: host RAM regions plus the attached S-NIC and its
// management OS.
type Machine struct {
	NIC *snic.Device
	OS  *nicos.OS
	// staged holds uploads the host OS has accepted into host RAM.
	staged map[string][]byte
	// Corrupt, when set, makes the (untrusted) host OS flip a byte of
	// every staged image — the mis-staging scenario attestation detects.
	Corrupt bool
}

// NewMachine attaches dev to a fresh host.
func NewMachine(dev *snic.Device) *Machine {
	return &Machine{
		NIC:    dev,
		OS:     nicos.New(dev),
		staged: make(map[string][]byte),
	}
}

// Stage accepts a developer upload into host RAM.
func (m *Machine) Stage(u Upload) {
	img := append([]byte(nil), u.Image...)
	if m.Corrupt && len(img) > 0 {
		img[0] ^= 0xFF
	}
	m.staged[u.Name] = img
}

// Deploy runs the full §4.1 flow for a previously staged upload: the NIC
// OS pulls the image from host RAM over a DMA bank into NIC-visible
// memory, then invokes NF_create. It returns the function id and launch
// report.
func (m *Machine) Deploy(u Upload) (snic.ID, snic.LaunchReport, error) {
	img, ok := m.staged[u.Name]
	if !ok {
		return 0, snic.LaunchReport{}, fmt.Errorf("host: %q not staged", u.Name)
	}
	spec := u.Spec
	// The DMA transfer happens via the host window attached to the spec:
	// the staged bytes are what actually reach NIC RAM.
	spec.Image = img
	if len(spec.PageSet) == 0 {
		spec.PageSet = pagealloc.PageSet{128 << 10}
	}
	return m.OS.NFCreate(u.Name, spec)
}

// HostWindowFor builds a host-sanctioned DMA window pre-filled with the
// staged image, for functions that also want runtime host transfers.
func (m *Machine) HostWindowFor(u Upload, extra int) (*dma.HostRegion, error) {
	img, ok := m.staged[u.Name]
	if !ok {
		return nil, fmt.Errorf("host: %q not staged", u.Name)
	}
	w := dma.NewHostRegion(len(img) + extra)
	copy(w.Bytes(), img)
	return w, nil
}

// ExpectedDigest recomputes what the launched image digest should be if
// the host staged honestly (for verifier-side checks in tests).
func (m *Machine) ExpectedDigest(u Upload) [32]byte {
	return sha256.Sum256(m.staged[u.Name])
}
