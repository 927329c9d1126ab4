//go:build race

package lib

// raceEnabled is RaceOnly's one use. It is declared again under !race,
// so the two files are never type-checked together.
var raceEnabled = RaceOnly()
