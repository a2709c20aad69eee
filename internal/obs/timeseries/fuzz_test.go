package timeseries_test

import (
	"encoding/json"
	"testing"

	"netags/internal/cluster"
	"netags/internal/obs/timeseries"
	"netags/internal/serve"
)

// FuzzParseRules: -slo-rules files are input from outside the program.
// Parsing any bytes must not panic, every accepted rule must pass Validate
// and have a positive window, and accepted names must be unique.
func FuzzParseRules(f *testing.F) {
	for _, rules := range [][]timeseries.Rule{serve.DefaultSLORules(), cluster.DefaultSLORules()} {
		b, err := json.Marshal(rules)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[{"name":"sat","window_s":30,"series":"fill","op":"<=","value":0.1}]`))
	f.Add([]byte(`[{"name":"w","window_s":9.2e9,"series":"x"}]`))
	f.Add([]byte(`[{"name":"w","window_s":1e10,"good":"g","total":"t","objective":0.9}]`))
	f.Add([]byte(`[{"name":"a","window_s":1,"series":"x"},{"name":"a","window_s":2,"series":"y"}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := timeseries.ParseRules(data)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(rules))
		for _, r := range rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted rule %+v fails Validate: %v", r, err)
			}
			if r.Window() <= 0 {
				t.Fatalf("accepted rule %+v has window %v", r, r.Window())
			}
			if seen[r.Name] {
				t.Fatalf("accepted duplicate name %q", r.Name)
			}
			seen[r.Name] = true
		}
	})
}
