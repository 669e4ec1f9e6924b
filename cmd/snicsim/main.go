// Command snicsim runs one co-tenancy scenario through the timing
// simulator and reports per-NF IPC on any registered device model —
// each model contributes its cache policy and bus-arbitration
// discipline. Example:
//
//	snicsim -nfs FW,DPI,NAT,LB -l2 4194304 -instr 500000 -device all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snic/internal/device"
	"snic/internal/exp"
	"snic/internal/nf"
)

func main() {
	nfsFlag := flag.String("nfs", "FW,DPI", "comma-separated NFs to co-locate (FW DPI NAT LB LPM Mon)")
	l2Size := flag.Uint64("l2", 4<<20, "shared L2 size in bytes")
	instr := flag.Uint64("instr", 400000, "instructions to measure per core")
	seed := flag.Uint64("seed", 1, "simulation seed")
	models := flag.String("device", "all",
		"device models to sweep ("+strings.Join(device.Models(), ", ")+"), comma-separated, or \"all\"")
	flag.Parse()

	names := strings.Split(*nfsFlag, ",")
	list := device.Models()
	if *models != "all" {
		list = strings.Split(*models, ",")
	}
	if err := run(os.Stdout, names, list, *l2Size, *instr, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "snicsim:", err)
		os.Exit(1)
	}
}

// run writes the per-model IPC table for one NF mix to w.
func run(w io.Writer, names, models []string, l2Size, instr, seed uint64) error {
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	cfg := exp.Fig5Config{
		Suite:        nf.SuiteConfig{FirewallRules: 643, DPIPatterns: 4000, Routes: 8000, Seed: seed},
		PoolFlows:    50000,
		WarmupInstr:  instr / 4,
		MeasureInstr: instr,
		Seed:         seed,
	}
	ipcs := make(map[string][]float64, len(models))
	for i, m := range models {
		models[i] = strings.TrimSpace(m)
		dev, err := device.New(device.Spec{Model: models[i]})
		if err != nil {
			return err
		}
		out, err := exp.CoTenancyIPC(cfg, names, l2Size, dev)
		if err != nil {
			return err
		}
		ipcs[models[i]] = out
	}

	// One IPC column per model; if S-NIC and a commodity model are both
	// present, report S-NIC's degradation against the first commodity one.
	commodity := ""
	for _, m := range models {
		if m != "snic" {
			commodity = m
			break
		}
	}
	withDeg := commodity != "" && ipcs["snic"] != nil
	fmt.Fprintf(w, "%-6s", "NF")
	for _, m := range models {
		fmt.Fprintf(w, " %-14s", m)
	}
	if withDeg {
		fmt.Fprintf(w, " %s", "S-NIC deg")
	}
	fmt.Fprintln(w)
	for i, name := range names {
		fmt.Fprintf(w, "%-6s", name)
		for _, m := range models {
			fmt.Fprintf(w, " %-14.3f", ipcs[m][i])
		}
		if withDeg {
			fmt.Fprintf(w, " %.2f%%", exp.Degradation(ipcs[commodity][i], ipcs["snic"][i]))
		}
		fmt.Fprintln(w)
	}
	return nil
}
