package main

import (
	"slices"
	"testing"
)

// TestFixture runs the gate over the module in testdata/mod, which holds one
// export for each case it decides, and expects exactly the two that are
// referenced only by their own package's tests: a function, and a method
// sharing its name with another type's method that non-test code calls.
// Passing are an export a test of another package uses, one the nested
// module's non-test code uses, the error and json.Unmarshaler implementers,
// and the unused export of the exempt simtest package.
func TestFixture(t *testing.T) {
	got, err := run("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:20:18: fixture/internal/a.Sample.Merge",
		"internal/a/a.go:5:6: fixture/internal/a.OwnOnly",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
}
