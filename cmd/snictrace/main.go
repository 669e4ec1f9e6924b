// Command snictrace records and replays packet traces against an S-NIC.
//
//	snictrace -record trace.bin -flows 1000 -packets 50000   # synthesize + save
//	snictrace -replay trace.bin                              # feed through an S-NIC firewall
//
// Recording uses the ICTF-like Zipf(1.1) pool; replay launches a firewall
// NF with a catch-all rule and reports delivery and verdict counts, so a
// saved trace reproduces byte-identical runs across machines. Exit
// status: 0 ok, 1 record or replay error, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"snic/internal/device"
	"snic/internal/nf"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: exit 0 on success, 1 when recording or replay
// fails, 2 on a usage error (nothing is written then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snictrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "write a synthesized trace to this file")
	replay := fs.String("replay", "", "replay a trace file through an S-NIC firewall")
	flows := fs.Int("flows", 1000, "flow-pool size for -record (at least 1)")
	packets := fs.Int("packets", 10000, "packets to synthesize for -record (at least 1)")
	seed := fs.Uint64("seed", 1, "synthesis seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "snictrace:", msg)
		return 2
	}

	var err error
	switch {
	case *record != "":
		if *flows < 1 || *packets < 1 {
			return usage(fmt.Sprintf("-flows and -packets must be at least 1 (got %d and %d)", *flows, *packets))
		}
		err = doRecord(stdout, *record, *flows, *packets, *seed)
	case *replay != "":
		err = doReplay(stdout, *replay)
	default:
		return usage("need -record FILE or -replay FILE")
	}
	if err != nil {
		fmt.Fprintln(stderr, "snictrace:", err)
		return 1
	}
	return 0
}

func doRecord(w io.Writer, path string, flows, packets int, seed uint64) error {
	pool := trace.NewICTF(sim.NewRand(seed), flows)
	frames := pool.Frames(packets)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.SaveFrames(f, frames); err != nil {
		return err
	}
	var bytesTotal int
	for _, fr := range frames {
		bytesTotal += len(fr)
	}
	fmt.Fprintf(w, "recorded %d frames (%d flows, %.1f MB) to %s\n",
		len(frames), flows, float64(bytesTotal)/(1<<20), path)
	return nil
}

func doReplay(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := trace.LoadFrames(f)
	if err != nil {
		return err
	}
	dev, err := device.New(device.Spec{Model: "snic", Cores: 4, MemBytes: 64 << 20})
	if err != nil {
		return err
	}
	return replayFrames(w, dev, frames)
}

// replayFrames launches a catch-all firewall function on dev, feeds it
// every frame and reports where each one went. A frame that cannot be
// injected, steered to the firewall, retrieved or parsed counts as an
// error.
func replayFrames(w io.Writer, dev device.NIC, frames [][]byte) error {
	id, err := dev.Launch(device.FuncSpec{
		Name:     "replay-firewall",
		Image:    []byte("replay-firewall"),
		MemBytes: 4 << 20,
		Rules:    []pktio.MatchSpec{{}}, // catch-all
	})
	if err != nil {
		return err
	}
	// The rule set is fixed (derived from a constant base, not -seed) so a
	// saved trace replays against identical firewall behavior everywhere.
	fw := nf.NewFirewall(trace.FirewallRules(sim.DeriveRand(7, "snictrace", "replay-rules"), 128))

	var delivered, passed, dropped, errs int
	for _, frame := range frames {
		owner, err := dev.Inject(frame)
		if err != nil || owner != id {
			errs++
			continue
		}
		raw, err := dev.Retrieve(id)
		if err != nil {
			errs++
			continue
		}
		delivered++
		p, err := pkt.Parse(raw)
		if err != nil {
			errs++
			continue
		}
		if fw.Process(&p) == nf.Drop {
			dropped++
		} else {
			passed++
		}
	}
	fmt.Fprintf(w, "replayed %d frames: %d delivered, %d passed, %d dropped, %d errors\n",
		len(frames), delivered, passed, dropped, errs)
	fmt.Fprintf(w, "firewall: %d flows cached, %d cache hits, %d evictions\n",
		fw.CacheLen(), fw.Hits, fw.Evicted)
	return nil
}
