package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The fixture module has one unreferenced export, a method that only
// satisfies fmt.Stringer, an embedded field used only through its
// promoted methods, an export that only a test references and one that
// only a race-tagged test references: the checker reports exactly the
// first.
func TestCheckFixture(t *testing.T) {
	found, err := check([]string{filepath.Join("testdata", "fixture")})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join("testdata", "fixture", "lib", "lib.go") + ":10: lib.Unreferenced"}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
}
