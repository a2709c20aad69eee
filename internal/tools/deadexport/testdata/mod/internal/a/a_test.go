package a

import "testing"

func TestOwn(t *testing.T) {
	var s Sample
	s.Merge(Sample{n: OwnOnly()})
	if s.n != 1 {
		t.Fatal(s.n)
	}
}
