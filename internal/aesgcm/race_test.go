//go:build race

package aesgcm

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what is put back, so the allocation bound of a pooled
// path holds only without it.
const raceEnabled = true
