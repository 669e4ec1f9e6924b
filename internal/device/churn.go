package device

import (
	"slices"

	"snic/internal/sim"
	"snic/internal/snic"
)

// ChurnPhase names the trusted instruction a churn latency sample
// belongs to (Table 1: nf_launch, nf_attest, nf_teardown).
type ChurnPhase int

const (
	ChurnLaunch ChurnPhase = iota
	ChurnAttest
	ChurnTeardown
)

// Churn parameterizes one serverless-churn run (RunChurn): a continuous
// stream of short-lived functions on one device, λ-NIC style.
type Churn struct {
	Events int  // lifecycle events
	Target int  // steady-state live-function target, clamped to FreeCores
	Batch  int  // attestation batch size when Fast is set on an S-NIC
	Fast   bool // S-NIC churn fast paths on for the run's duration
	// Func builds the spec of the seq'th launch attempt. It is called in
	// event order, so draws it makes on the run's rng interleave with
	// victim selection deterministically.
	Func func(seq int) FuncSpec
	// Observe receives every timed trusted instruction in event order:
	// ms simulated milliseconds covering n functions (n > 1 only for a
	// Merkle-batched attestation). Models without a control-path latency
	// model never call it.
	Observe func(phase ChurnPhase, ms float64, n int)
}

// ChurnCounts is what one churn run did.
type ChurnCounts struct {
	Launches   uint64
	Fails      uint64 // launches the model refused
	Attests    uint64
	Teardowns  uint64
	PoolHits   uint64 // S-NIC warm-pool launches served from the arena
	PoolMisses uint64
	LiveSum    uint64 // live functions summed over events (occupancy numerator)
}

// churnNonce is the verifier nonce every churn quote signs; quotes are
// never checked, so any fixed value serves.
var churnNonce = []byte("churn-nonce")

// RunChurn drives n through c.Events lifecycle events: launch toward the
// steady-state target, attest (one quote per function, or in Merkle
// batches on the S-NIC fast path), and tear down rng-chosen victims once
// the target is reached. A refused launch is counted, not returned —
// bump-only secure allocators exhaust under sustained churn — and
// recycles a victim so the loop keeps exercising teardown. The run
// drains every function before returning and, on an S-NIC, restores the
// prior fast-path configuration, so the device leaves as it entered.
func RunChurn(n NIC, c Churn, rng *sim.Rand) (ChurnCounts, error) {
	var out ChurnCounts
	sn, isSNIC := n.(*SNIC)
	batch := 1
	var hits0, misses0 uint64
	if isSNIC {
		if c.Fast {
			prev := sn.dev.FastPathConfig()
			sn.EnableFastPaths(snic.FastPaths{WarmPool: true, ParallelScrub: true})
			// Restoring the prior configuration drains any parked frames
			// back to the free list, so later launches see the allocator
			// the device's capacity vector promises.
			defer sn.dev.SetFastPaths(prev)
			batch = c.Batch
		}
		hits0, misses0 = sn.dev.PoolStats()
	}
	target := min(c.Target, n.FreeCores())

	var live, pending []FuncID
	attest := func() error {
		if len(pending) == 0 {
			return nil
		}
		switch {
		case isSNIC && batch > 1:
			_, _, _, ms, err := sn.dev.AttestNFBatch(pending, churnNonce)
			if err != nil {
				return err
			}
			c.Observe(ChurnAttest, ms, len(pending))
			out.Attests += uint64(len(pending))
		case isSNIC:
			for _, id := range pending {
				_, _, ms, err := sn.dev.AttestNF(id, churnNonce)
				if err != nil {
					return err
				}
				c.Observe(ChurnAttest, ms, 1)
				out.Attests++
			}
		default:
			// Models without the capability fall through with zero
			// attests; a model that grows it counts.
			for _, id := range pending {
				if _, err := n.Attest(id, churnNonce); err == nil {
					out.Attests++
				}
			}
		}
		pending = pending[:0]
		return nil
	}
	launch := func(seq int) bool {
		spec := c.Func(seq)
		var id FuncID
		var err error
		if isSNIC {
			var rep snic.LaunchReport
			if id, rep, err = sn.LaunchTimed(spec); err == nil {
				c.Observe(ChurnLaunch, rep.TotalMS(), 1)
			}
		} else {
			id, err = n.Launch(spec)
		}
		if err != nil {
			out.Fails++
			return false
		}
		live = append(live, id)
		pending = append(pending, id)
		out.Launches++
		return true
	}
	teardown := func(k int) error {
		id := live[k]
		live = slices.Delete(live, k, k+1)
		if i := slices.Index(pending, id); i >= 0 {
			pending = slices.Delete(pending, i, i+1)
		}
		if isSNIC {
			rep, err := sn.TeardownTimed(id)
			if err != nil {
				return err
			}
			c.Observe(ChurnTeardown, rep.TotalMS(), 1)
		} else if err := n.Teardown(id); err != nil {
			return err
		}
		out.Teardowns++
		return nil
	}

	for ev, seq := 0, 0; target > 0 && ev < c.Events; ev++ {
		var err error
		if len(live) < target {
			ok := launch(seq)
			seq++
			switch {
			case ok && len(pending) >= batch:
				err = attest()
			case !ok && len(live) > 0:
				err = teardown(rng.Intn(len(live)))
			}
		} else {
			err = teardown(rng.Intn(len(live)))
		}
		if err != nil {
			return out, err
		}
		out.LiveSum += uint64(len(live))
	}
	// Drain: quote the stragglers, then tear everything down.
	if err := attest(); err != nil {
		return out, err
	}
	for len(live) > 0 {
		if err := teardown(len(live) - 1); err != nil {
			return out, err
		}
	}
	if isSNIC {
		hits, misses := sn.dev.PoolStats()
		out.PoolHits, out.PoolMisses = hits-hits0, misses-misses0
	}
	return out, nil
}
