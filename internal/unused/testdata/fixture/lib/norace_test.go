//go:build !race

package lib

const raceEnabled = false
