package exp

import (
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/nf"
	"snic/internal/sim"
)

// The per-device co-tenancy sweep extends Figure 5 with a -device
// dimension (the ROADMAP's per-device colocation item, in minimal form):
// for every registered NIC model it re-runs the §5.3 pairwise comparison
// using that model's own shared-L2 policy and bus arbiter against the
// commodity Shared+FIFO baseline. Commodity models therefore measure
// ~0% degradation against themselves (their "isolation" is the
// baseline), while S-NIC shows the small partitioning cost — the same
// headline the paper's Figure 5 makes, now per device.

// Fig5DevRow is one (device model, target NF) result: the target's IPC
// degradation distribution over exhaustive pairwise colocations at the
// paper's 4 MB L2.
type Fig5DevRow struct {
	Device string
	NF     string
	Median float64
	P1     float64
	P99    float64
}

// Figure5Devices sweeps the pairwise colocation comparison across every
// registered device model.
//
// It decomposes the device sweep into one engine job per
// (model, target NF) point. Each point derives everything from
// (cfg, model, target), so jobs stay independent and worker-invariant.
func (r *Runner) Figure5Devices(cfg Fig5Config) ([]Fig5DevRow, error) {
	cfg.defaults()
	var jobs []engine.Job[Fig5DevRow]
	for _, model := range device.Models() {
		for _, target := range nf.Names {
			key := model + "/" + target
			jobs = append(jobs, engine.Job[Fig5DevRow]{
				Experiment: "fig5dev",
				Key:        key,
				Run: func(*sim.Rand) (Fig5DevRow, error) {
					row, err := r.cachePoint(cfg, "fig5dev/"+key, model, target, 2, 0, 4<<20)
					if err != nil {
						return Fig5DevRow{}, err
					}
					return Fig5DevRow{
						Device: model, NF: target,
						Median: row.Median, P1: row.P1, P99: row.P99,
					}, nil
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// RenderFig5Dev formats the device sweep as a table.
func RenderFig5Dev(rows []Fig5DevRow) Table {
	t := Table{
		Title:  "Figure 5 (per-device): IPC degradation vs commodity shared hardware (2 NFs, 4MB L2)",
		Header: []string{"device", "NF", "median %", "p1 %", "p99 %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Device, r.NF, f2(r.Median), f2(r.P1), f2(r.P99)})
	}
	return t
}
