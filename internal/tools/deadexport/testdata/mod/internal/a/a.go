// Package a declares one export for each case the gate decides.
package a

// OwnOnly is referenced only by a's own tests: flagged.
func OwnOnly() int { return 1 }

// CrossTest is referenced only by another package's test: passes.
func CrossTest() int { return 2 }

// Used is referenced by another package's non-test code: passes.
func Used() int { return 3 }

// ByBench is referenced only by the nested module's non-test code: passes.
func ByBench() int { return 4 }

// Sample's Merge shares its name with Meter's, which b calls: flagged.
type Sample struct{ n int }

// Merge folds o into s.
func (s *Sample) Merge(o Sample) { s.n += o.n }

// Meter's Merge is called by b: passes.
type Meter struct{ n int }

// Merge folds o into m.
func (m *Meter) Merge(o *Meter) { m.n += o.n }

// Err implements error, so its Error method is exempt.
type Err struct{}

func (Err) Error() string { return "a: err" }

// Doc implements json.Unmarshaler, so its UnmarshalJSON method is exempt.
type Doc struct{ raw []byte }

// UnmarshalJSON keeps the raw document.
func (d *Doc) UnmarshalJSON(b []byte) error {
	d.raw = append(d.raw[:0], b...)
	return nil
}
