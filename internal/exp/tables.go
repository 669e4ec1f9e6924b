package exp

import (
	"fmt"

	"snic/internal/engine"
	"snic/internal/hwmodel"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/pagealloc"
	"snic/internal/sim"
	"snic/internal/tco"
	"snic/internal/trace"
)

// Table2 regenerates the programmable-core TLB cost table.
func Table2() Table {
	t := Table{
		Title:  "Table 2: TLB hardware cost on programmable cores (area mm² / power W)",
		Header: []string{"per-core mem (entries)", "4-core", "8-core", "16-core", "48-core"},
	}
	rows := []struct {
		label   string
		entries int
	}{
		{"366MB (183)", 183},
		{"512MB (256)", 256},
		{"1024MB (512)", 512},
	}
	for _, r := range rows {
		cells := []string{r.label}
		for _, cores := range []int{4, 8, 16, 48} {
			m := hwmodel.CoreTLBCost(cores, r.entries)
			cells = append(cells, fmt.Sprintf("%.3f/%.3f", m.AreaMM2, m.PowerW))
		}
		t.Rows = append(t.Rows, cells)
	}
	b183 := hwmodel.A9Baseline(183)
	m4 := hwmodel.CoreTLBCost(4, 183)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"4-core relative overhead at 183 entries: area %.2f%%, power %.2f%% (paper: 0.90%%, 1.36%%)",
		m4.AreaMM2/b183.AreaMM2*100, m4.PowerW/b183.PowerW*100))
	return t
}

// Table3 regenerates the virtualized-accelerator TLB cost table.
func Table3() Table {
	t := Table{
		Title:  "Table 3: TLB banks on virtualized accelerators (area mm² / power W)",
		Header: []string{"clusters (threads)", "DPI(54)", "ZIP(70)", "RAID(5)"},
	}
	for _, c := range []struct {
		clusters int
		label    string
	}{{16, "16 (4 thr)"}, {8, "8 (8 thr)"}, {4, "4 (16 thr)"}} {
		dpi := hwmodel.AccelTLBCost(hwmodel.DPITLB, 54, c.clusters)
		zip := hwmodel.AccelTLBCost(hwmodel.ZIPTLB, 70, c.clusters)
		raid := hwmodel.AccelTLBCost(hwmodel.RAIDTLB, 5, c.clusters)
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.3f/%.3f", dpi.AreaMM2, dpi.PowerW),
			fmt.Sprintf("%.3f/%.3f", zip.AreaMM2, zip.PowerW),
			fmt.Sprintf("%.3f/%.3f", raid.AreaMM2, raid.PowerW),
		})
	}
	return t
}

// Table4 regenerates the VPP/DMA TLB cost table.
func Table4() Table {
	t := Table{
		Title:  "Table 4: TLB banks for virtual packet pipelines and DMA (area mm² / power W)",
		Header: []string{"units (cores/NF)", "VPP(3 entries)", "DMA(2 entries)"},
	}
	for _, c := range []struct {
		units int
		label string
	}{{12, "12 (4 cores/NF)"}, {6, "6 (8 cores/NF)"}, {3, "3 (16 cores/NF)"}} {
		vpp := hwmodel.PipeTLBCost(3, c.units)
		dm := hwmodel.PipeTLBCost(2, c.units)
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.3f/%.3f", vpp.AreaMM2, vpp.PowerW),
			fmt.Sprintf("%.3f/%.3f", dm.AreaMM2, dm.PowerW),
		})
	}
	t.Notes = append(t.Notes, "2- and 3-entry banks cost the same (structure floor), as in the paper")
	return t
}

// Table5 regenerates the page-size-setting table at 48 cores, computing
// the per-setting entry requirement as the maximum over the six NFs'
// published profiles (which is how the paper derives 183/51/13).
//
// It decomposes the sweep into one engine job per page-size setting.
func (r *Runner) Table5() (Table, error) {
	t := Table{
		Title:  "Table 5: TLB cost vs page-size setting (48 cores)",
		Header: []string{"setting", "max entries (any NF)", "area mm²", "power W"},
	}
	settings := []struct {
		name string
		ps   pagealloc.PageSet
	}{
		{"Equal (2MB)", pagealloc.Equal},
		{"Flex-low (128KB,2MB,64MB)", pagealloc.FlexLow},
		{"Flex-high (2MB,32MB,128MB)", pagealloc.FlexHigh},
		// Ablation beyond the paper: host-style 4KB base pages show why
		// huge pages are non-negotiable for locked-TLB designs.
		{"Ablation: 4KB only", pagealloc.PageSet{4 << 10}},
	}
	jobs := make([]engine.Job[[]string], len(settings))
	for i, s := range settings {
		jobs[i] = engine.Job[[]string]{
			Experiment: "table5",
			Key:        s.name,
			Run: func(*sim.Rand) ([]string, error) {
				maxEntries := 0
				for _, name := range nf.Names {
					p, err := nf.PaperProfile(name)
					if err != nil {
						return nil, err
					}
					e, err := pagealloc.EntriesFor([]uint64{p.Text, p.Data, p.Code, p.Heap}, s.ps)
					if err != nil {
						return nil, err
					}
					if e > maxEntries {
						maxEntries = e
					}
				}
				m := hwmodel.CoreTLBCost(48, maxEntries)
				return []string{
					s.name, fmt.Sprintf("%d x 48", maxEntries), f3(m.AreaMM2), f3(m.PowerW),
				}, nil
			},
		}
	}
	rows, err := runJobs(r, 0x7AB5, jobs)
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"the paper's Table 5 caption swaps the Flex labels; we follow the §5.2 prose")
	return t, nil
}

// NFProfile is one measured Table 6 row.
type NFProfile struct {
	Name                     string
	Measured                 mem.Profile
	UsedBytes                uint64 // steady-state live bytes (Table 8 numerator)
	Equal, FlexLow, FlexHigh int    // TLB entries from measured profile
	PaperEqual               int    // entries recomputed from the paper's profile
	MUR                      float64
}

// ProfileNFs builds the suite at the given scale, drives the NFs without
// a fixed footprint with a deterministic workload, and measures every
// profile. The workload (flow count, packets) scales with cfg so tests
// stay fast.
//
// It decomposes the Table 6/8 profiling sweep into one engine
// job per NF. Each job builds its own NF instance and any packet
// pool from the job-derived RNG; the serial implementation used to
// thread one pool through all six NFs in table order, which made every
// profile depend on its predecessors' draws and the pool unshareable
// across workers.
func (r *Runner) ProfileNFs(cfg nf.SuiteConfig, flows, packets int) ([]NFProfile, error) {
	jobs := make([]engine.Job[NFProfile], len(nf.Names))
	for i, name := range nf.Names {
		jobs[i] = engine.Job[NFProfile]{
			Experiment: "profile",
			Key:        name,
			Run: func(rng *sim.Rand) (NFProfile, error) {
				return profileNF(name, cfg, flows, packets, rng)
			},
		}
	}
	return runJobs(r, cfg.Seed+17, jobs)
}

// profileNF drives one freshly built NF, unless its footprint is fixed,
// and measures its profile. All mutable state (the NF, the pool, the
// CAIDA stream) is local to this call, so jobs never share instances.
func profileNF(name string, cfg nf.SuiteConfig, flows, packets int, rng *sim.Rand) (NFProfile, error) {
	f, err := nf.New(name, cfg)
	if err != nil {
		return NFProfile{}, err
	}
	// Drive stateful NFs so caches/tables/counters populate; a fixed
	// footprint (DPI, LPM) is what construction charged, and its job
	// draws nothing else from rng. The NFs consume each packet before the
	// next draw, so the pool's reused payload buffer is safe here.
	if !f.FixedFootprint() {
		pool := ictfPoolFork(rng.ForkSeed(), flows)
		for i := 0; i < packets; i++ {
			_, p := pool.NextPacketBuf(trace.IMIXLen(rng))
			f.Process(&p)
		}
	}
	if name == "Mon" {
		// The Monitor additionally observes a CAIDA-like window whose
		// distinct-flow count dwarfs the pool.
		c := trace.NewCAIDA(rng.Fork(), float64(flows))
		c.Advance(10, 1)
		for {
			_, p, ok := c.Next()
			if !ok {
				break
			}
			f.Process(&p)
		}
	}
	prof := f.Arena().Profile()
	segs := []uint64{prof.Text, prof.Data, prof.Code, prof.Heap}
	eq, err := pagealloc.EntriesFor(segs, pagealloc.Equal)
	if err != nil {
		return NFProfile{}, err
	}
	fl, err := pagealloc.EntriesFor(segs, pagealloc.FlexLow)
	if err != nil {
		return NFProfile{}, err
	}
	fh, err := pagealloc.EntriesFor(segs, pagealloc.FlexHigh)
	if err != nil {
		return NFProfile{}, err
	}
	pp, err := nf.PaperProfile(name)
	if err != nil {
		return NFProfile{}, err
	}
	peq, err := pagealloc.EntriesFor([]uint64{pp.Text, pp.Data, pp.Code, pp.Heap}, pagealloc.Equal)
	if err != nil {
		return NFProfile{}, err
	}
	used := f.Arena().Live()
	mur := 1.0
	if prof.Total() > 0 {
		mur = float64(used) / float64(prof.Total())
	}
	return NFProfile{
		Name: name, Measured: prof, UsedBytes: used,
		Equal: eq, FlexLow: fl, FlexHigh: fh, PaperEqual: peq,
		MUR: mur,
	}, nil
}

// Table6 renders the measured memory profiles next to the paper's.
func Table6(profiles []NFProfile) Table {
	t := Table{
		Title: "Table 6: NF memory profiles (measured; paper values in EXPERIMENTS.md)",
		Header: []string{"NF", "text MB", "data MB", "code MB", "heap MB", "total MB",
			"TLB Equal", "Flex-low", "Flex-high", "MUR"},
	}
	for _, p := range profiles {
		t.Rows = append(t.Rows, []string{
			p.Name, mb(p.Measured.Text), mb(p.Measured.Data), mb(p.Measured.Code),
			mb(p.Measured.Heap), mb(p.Measured.Total()),
			fmt.Sprint(p.Equal), fmt.Sprint(p.FlexLow), fmt.Sprint(p.FlexHigh),
			fmt.Sprintf("%.1f%%", p.MUR*100),
		})
	}
	return t
}

// Table7 reports the accelerator buffer inventories and the TLB entries
// they need — using the paper's published buffer sizes plus our measured
// DPI graph when one is supplied (0 uses the paper's 97.28 MB).
//
// It decomposes the inventory into one engine job per accelerator.
func (r *Runner) Table7(dpiGraphBytes uint64) (Table, error) {
	if dpiGraphBytes == 0 {
		mib := float64(uint64(1) << 20)
		dpiGraphBytes = uint64(97.28 * mib)
	}
	type acc struct {
		name string
		segs []uint64
	}
	kb := func(v uint64) uint64 { return v << 10 }
	mbF := func(v uint64) uint64 { return v << 20 }
	accs := []acc{
		{"DPI", []uint64{kb(256), kb(128), mbF(2), mbF(2), kb(256), dpiGraphBytes}},
		{"ZIP", []uint64{kb(64), kb(128), mbF(2), kb(24), mbF(2), mbF(128), kb(32)}},
		{"RAID", []uint64{mbF(4), kb(128), mbF(2), mbF(2)}},
	}
	jobs := make([]engine.Job[[]string], len(accs))
	for i, a := range accs {
		jobs[i] = engine.Job[[]string]{
			Experiment: "table7",
			Key:        a.name,
			Run: func(*sim.Rand) ([]string, error) {
				var total uint64
				for _, s := range a.segs {
					total += s
				}
				e, err := pagealloc.EntriesFor(a.segs, pagealloc.Equal)
				if err != nil {
					return nil, err
				}
				return []string{a.name, mb(total), fmt.Sprint(e)}, nil
			},
		}
	}
	rows, err := runJobs(r, 0x7AB7, jobs)
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Table 7: accelerator memory profiles and TLB entries (2MB pages)",
		Header: []string{"accel", "total MB", "TLB entries"},
		Rows:   rows,
	}, nil
}

// Table8 renders memory-utilization ratios, measured and published.
func Table8(profiles []NFProfile) Table {
	t := Table{
		Title:  "Table 8: memory utilization ratios",
		Header: []string{"NF", "prealloc MB", "used MB", "MUR (measured)", "MUR (paper)"},
	}
	for _, p := range profiles {
		paperProf, _ := nf.PaperProfile(p.Name)
		paperUsed, _ := nf.PaperUsedBytes(p.Name)
		t.Rows = append(t.Rows, []string{
			p.Name, mb(p.Measured.Total()), mb(p.UsedBytes),
			fmt.Sprintf("%.1f%%", p.MUR*100),
			fmt.Sprintf("%.1f%%", float64(paperUsed)/float64(paperProf.Total())*100),
		})
	}
	return t
}

// TCO renders the §5.2 analysis.
func TCO() Table {
	r := tco.Compute(tco.PaperParams())
	t := Table{
		Title:  "TCO analysis (§5.2, 3-year per core)",
		Header: []string{"platform", "$/core"},
		Rows: [][]string{
			{"LiquidIO NIC", f2(r.NICPerCore)},
			{"host (E5-2680v3)", f2(r.HostPerCore)},
			{"S-NIC (worst case)", f2(r.SNICPerCore)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("TCO advantage lost: %.2f%% (paper: 8.37%%); preserved: %.1f%% (paper: 91.6%%)",
			r.AdvantageLoss*100, r.AdvantageKept*100))
	return t
}

// Headline renders the summary hardware-cost claim.
func Headline() Table {
	added, base, areaPct, powerPct := hwmodel.Headline()
	return Table{
		Title:  "Headline hardware cost (vs 4-core A9, 512-entry TLBs)",
		Header: []string{"metric", "added", "baseline", "overhead"},
		Rows: [][]string{
			{"area mm²", f3(added.AreaMM2), f3(base.AreaMM2), fmt.Sprintf("%.2f%% (paper 8.89%%)", areaPct)},
			{"power W", f3(added.PowerW), f3(base.PowerW), fmt.Sprintf("%.2f%% (paper 11.45%%)", powerPct)},
		},
	}
}
