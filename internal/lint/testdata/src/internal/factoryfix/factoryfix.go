// Package factoryfix deliberately violates the factory-discipline
// check: direct snic.New references outside internal/device.
package factoryfix

import "snic/internal/snic"

// Build constructs a device behind the factory's back.
func Build() error {
	_, err := snic.New(4)
	return err
}

// Reference shows the check also catches taking the constructor as a
// value, not just calling it.
var Reference = snic.New
