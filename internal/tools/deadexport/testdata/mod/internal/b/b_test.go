package b

import (
	"testing"

	"fixture/internal/a"
)

func TestCross(t *testing.T) {
	if a.CrossTest() != 2 {
		t.Fatal("CrossTest")
	}
}
