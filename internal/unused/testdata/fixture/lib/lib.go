// Package lib holds one export of each kind the checker tells apart.
package lib

import (
	"bytes"
	"fmt"
)

// Unreferenced is referenced nowhere: the checker's one finding.
func Unreferenced() {}

// Box is used only through the methods its embedded field promotes.
type Box struct {
	bytes.Buffer
}

// Count is printed by fmt.
type Count int

// String is called by nothing but fmt, through fmt.Stringer.
func (c Count) String() string { return fmt.Sprintf("count %d", int(c)) }

// TestOnly is referenced only by a test.
func TestOnly() int { return 1 }

// RaceOnly is referenced only by a test built with the race tag.
func RaceOnly() bool { return true }
