// Package nicos is the datacenter-provided management OS that runs on the
// S-NIC's management core. It implements the host-visible management API
// of Table 1 (NF_create / NF_destroy) on top of the trusted instructions.
//
// The NIC OS is explicitly untrusted: it stages function images and picks
// resource assignments, but once nf_launch completes it cannot read,
// write, or even map the function's memory (the denylist dual-walk
// rejects it), and remote attestation catches any image it mis-staged.
package nicos

import (
	"fmt"

	"snic/internal/snic"
)

// OS is the management software instance.
type OS struct {
	dev *snic.Device
}

// New boots the NIC OS on a device.
func New(dev *snic.Device) *OS {
	return &OS{dev: dev}
}

// NFCreate implements Table 1's NF_create: stage the image from host
// memory (modelled by the spec's Image field), pick resources, and invoke
// nf_launch.
func (o *OS) NFCreate(name string, spec snic.LaunchSpec) (snic.ID, snic.LaunchReport, error) {
	rep, err := o.dev.Launch(spec)
	if err != nil {
		return 0, snic.LaunchReport{}, fmt.Errorf("nicos: NF_create(%s): %w", name, err)
	}
	return rep.ID, rep, nil
}

// NFDestroy implements Table 1's NF_destroy via nf_teardown.
func (o *OS) NFDestroy(id snic.ID) (snic.TeardownReport, error) {
	rep, err := o.dev.Teardown(id)
	if err != nil {
		return snic.TeardownReport{}, fmt.Errorf("nicos: NF_destroy(%d): %w", id, err)
	}
	return rep, nil
}
