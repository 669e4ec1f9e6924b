package device

func init() {
	Register("agilio", func(spec Spec) (NIC, error) { return newAgilio(spec) })
}

// agilio models the Netronome Agilio: islands of programmable cores
// with raw physical addressing of the shared memory banks, one shared
// crypto accelerator whose latency leaks co-tenant activity, and an
// internal bus with no bandwidth reservations whose watchdog
// hard-crashes the NIC (the §3.3 DoS target). All of that is commBase;
// only the allocator differs: function memory is frame-owned DRAM.
type agilio struct {
	commBase
}

func newAgilio(spec Spec) (*agilio, error) {
	c, err := newCommBase("agilio", 0, spec)
	if err != nil {
		return nil, err
	}
	return &agilio{c}, nil
}

func (d *agilio) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	core, err := d.cores.pick()
	if err != nil {
		return 0, err
	}
	region, err := d.pm.AllocBytes(d.nextID, spec.MemBytes)
	if err != nil {
		return 0, err
	}
	if err := d.pm.Write(region.Start, spec.Image); err != nil {
		return 0, err
	}
	return d.register(spec, region, core), nil
}

// Teardown returns the function's frames to the allocator, unscrubbed.
func (d *agilio) Teardown(id FuncID) error {
	if err := d.unregister(id); err != nil {
		return err
	}
	d.pm.ReleaseAll(id)
	return nil
}
