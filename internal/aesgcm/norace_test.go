//go:build !race

package aesgcm

const raceEnabled = false
