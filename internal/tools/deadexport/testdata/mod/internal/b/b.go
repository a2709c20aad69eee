// Package b is the non-test caller of package a.
package b

import (
	"encoding/json"

	"fixture/internal/a"
)

// Total uses a's exports from non-test code.
func Total(raw []byte) (int, error) {
	var m a.Meter
	m.Merge(&a.Meter{})
	var s a.Sample
	_ = s
	var d a.Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return 0, err
	}
	var err error = a.Err{}
	_ = err
	return a.Used(), nil
}
