//go:build race

package sim

// The race detector makes sync.Pool drop a share of its Puts at random, so
// allocation counts over pooled paths only hold without it.
func init() { raceEnabled = true }
