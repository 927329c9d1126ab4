// Package runnertest holds the determinism gate every parallel path in
// this repository is held to: the same run, at any worker count and any
// GOMAXPROCS, renders the same bytes as the serial reference.
package runnertest

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// SameBytes fails t unless run(4) and, under GOMAXPROCS=2, run(0) return
// exactly the bytes of run(1), the serial reference. workers means what
// it means to runner.New and ExecWorkers: 1 is serial, 0 is GOMAXPROCS.
// GOMAXPROCS is restored through t.Cleanup, so a failing run cannot
// leave the rest of the package at GOMAXPROCS=2.
func SameBytes(t testing.TB, run func(workers int) []byte) {
	t.Helper()
	ref := run(1)
	if got := run(4); !bytes.Equal(got, ref) {
		t.Fatalf("workers=4 diverged from the serial reference: %s", firstDiff(ref, got))
	}
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if got := run(0); !bytes.Equal(got, ref) {
		t.Fatalf("GOMAXPROCS=2 diverged from the serial reference: %s", firstDiff(ref, got))
	}
}

// firstDiff locates the first differing byte and quotes both sides
// around it.
func firstDiff(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	from := max(i-80, 0)
	quote := func(b []byte) []byte { return b[min(from, len(b)):min(i+80, len(b))] }
	return fmt.Sprintf("%d vs %d bytes, first difference at byte %d:\n--- serial ---\n%s\n--- got ---\n%s",
		len(want), len(got), i, quote(want), quote(got))
}
