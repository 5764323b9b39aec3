//go:build race

package tensor

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop entries at random, so arena leases allocate and an allocation
// count says nothing about the kernels.
const raceEnabled = true
