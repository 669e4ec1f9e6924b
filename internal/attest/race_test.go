//go:build race

package attest

// The race detector makes sync.Pool drop items at random, so math/big's
// temporaries are allocated anew at random; allocation counts mean
// nothing in a -race build.
func init() { raceEnabled = true }
