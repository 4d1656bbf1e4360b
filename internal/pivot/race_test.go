//go:build race

package pivot

// Under the race detector sync.Pool drops a share of its Puts on purpose,
// so pooled search frames are re-allocated and allocation counts mean
// nothing.
func init() { raceEnabled = true }
