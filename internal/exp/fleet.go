package exp

import (
	"fmt"

	"snic/internal/fleet"
	"snic/internal/sim"
)

// FleetRow is one placement policy's outcome under the canned churn
// workload: the datacenter-scale summary the per-device experiments
// cannot produce.
type FleetRow struct {
	Policy     string
	Placed     uint64
	Rejected   uint64
	Migrations uint64
	LostNFs    uint64
	Packets    uint64
	Drops      uint64
	Clock      uint64
}

// FleetChurn runs the fleet control plane through a scripted
// tenant/NF churn with periodic traffic bursts and a drain+failover
// epilogue, once per placement policy. The script is derived from
// (seed 29, "fleet", policy), so rows are byte-stable; the bursts fan
// out on the runner's engine pool, so — like every other experiment —
// the table is identical at any worker count.
func (r *Runner) FleetChurn(devices, events int) ([]FleetRow, error) {
	var rows []FleetRow
	for _, policy := range []string{"bestfit", "firstfit", "spread"} {
		row, err := r.fleetChurnOne(policy, devices, events)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (r *Runner) fleetChurnOne(policy string, devices, events int) (FleetRow, error) {
	const seed = 29
	rng := sim.DeriveRand(seed, "fleet", policy)
	workers := 0
	if r != nil {
		workers = r.Workers
	}
	m, err := fleet.NewManager(fleet.Config{
		Seed:    seed,
		Policy:  policy,
		Workers: workers,
		Obs:     r.obsReg(),
	})
	if err != nil {
		return FleetRow{}, err
	}
	models := []string{"snic", "bluefield", "agilio", "liquidio-ses", "liquidio-seum"}
	for i := 0; i < devices; i++ {
		spec := fleet.DeviceSpec{
			Name:  fmt.Sprintf("%s-dev-%02d", policy, i),
			Model: models[i%len(models)],
		}
		if err := m.AddDevice(spec); err != nil {
			return FleetRow{}, err
		}
	}
	nTenants := 3
	for i := 0; i < nTenants; i++ {
		if err := m.Admit(fmt.Sprintf("ten-%02d", i), fleet.ResourceSpec{}); err != nil {
			return FleetRow{}, err
		}
	}
	next, live := 0, []struct{ tn, nf string }{}
	for ev := 0; ev < events; ev++ {
		switch {
		case rng.Intn(10) < 6 || len(live) == 0:
			tn := fmt.Sprintf("ten-%02d", rng.Intn(nTenants))
			nf := fmt.Sprintf("nf-%03d", next)
			next++
			spec := fleet.NFSpec{Name: nf, MemMB: 1 + uint64(rng.Intn(2))}
			if _, err := m.Place(tn, spec); err == nil {
				live = append(live, struct{ tn, nf string }{tn, nf})
			}
		case rng.Intn(3) == 0:
			if _, err := m.Burst(fleet.WorkloadSpec{Packets: 4, AccelOps: 1}); err != nil {
				return FleetRow{}, err
			}
		default:
			k := rng.Intn(len(live))
			if err := m.Remove(live[k].tn, live[k].nf); err != nil {
				return FleetRow{}, err
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	// Epilogue: drain the first device (ignore a capacity refusal — a
	// full fleet legitimately cannot drain) and fail the last, then one
	// final burst over the survivors.
	first := fmt.Sprintf("%s-dev-%02d", policy, 0)
	last := fmt.Sprintf("%s-dev-%02d", policy, devices-1)
	if err := m.Drain(first); err == nil {
		if err := m.Undrain(first); err != nil {
			return FleetRow{}, err
		}
	}
	if err := m.Fail(last); err != nil {
		return FleetRow{}, err
	}
	if _, err := m.Burst(fleet.WorkloadSpec{Packets: 4}); err != nil {
		return FleetRow{}, err
	}
	st := m.Stats()
	return FleetRow{
		Policy:     policy,
		Placed:     st.Placed,
		Rejected:   st.Rejected,
		Migrations: st.Migrations,
		LostNFs:    st.LostNFs,
		Packets:    st.Packets,
		Drops:      st.Drops,
		Clock:      m.Clock(),
	}, nil
}

// RenderFleet renders the churn sweep as a table.
func RenderFleet(rows []FleetRow) Table {
	t := Table{
		Title:  "fleet: placement policies under churn (control-plane model)",
		Header: []string{"policy", "placed", "rejected", "migrations", "lost", "packets", "drops", "cycles"},
		Notes: []string{
			"scripted tenant/NF churn + drain/failover epilogue on a mixed-model fleet",
			"byte-stable: seeded event script, job-fanned bursts, simulated clock",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Policy,
			fmt.Sprint(r.Placed), fmt.Sprint(r.Rejected),
			fmt.Sprint(r.Migrations), fmt.Sprint(r.LostNFs),
			fmt.Sprint(r.Packets), fmt.Sprint(r.Drops),
			fmt.Sprint(r.Clock),
		})
	}
	return t
}
