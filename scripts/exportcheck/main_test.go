package main

import (
	"slices"
	"testing"
)

// TestFixture runs the check on a module made of the cases it must get
// right: a test-only method named like a used field and a test-only method
// named only in a string literal fail; a generic method used through an
// instantiation, a method reached only through an interface, a name that
// only a module nested through replace uses and an allow-listed name pass.
func TestFixture(t *testing.T) {
	flagged, nested, err := check("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{
		"stream.Stream.Ack internal/stream/stream.go:12",
		"tensor.Mat.SliceRows internal/tensor/tensor.go:16",
	}; !slices.Equal(flagged, want) {
		t.Errorf("flagged %q, want %q", flagged, want)
	}
	if want := []string{"tensor.New internal/tensor/tensor.go:10 (other)"}; !slices.Equal(nested, want) {
		t.Errorf("nested %q, want %q", nested, want)
	}
}
