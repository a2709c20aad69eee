package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzJobSpecKey proves the cache-key contract over arbitrary JSON specs:
// for any body that decodes and validates, the key is a stable content
// address — invariant under canonical-JSON round-trips, JSON field
// reordering, and repeated normalization. A violation here means two
// submissions of the same job could miss each other's cache entry (wasted
// sweeps) or, worse, distinct jobs could collide onto one entry.
func FuzzJobSpecKey(f *testing.F) {
	f.Add([]byte(`{"n":300,"trials":2,"r_values":[6]}`))
	f.Add([]byte(`{"sweep":"range","n":300,"radius":30,"trials":2,"r_values":[2,6,10],"protocols":["SICP","TRP-CCM"]}`))
	f.Add([]byte(`{"sweep":"density","trials":1,"r":6,"n_values":[100,300],"seed":9}`))
	f.Add([]byte(`{"sweep":"loss","n":200,"trials":1,"r":6,"loss_values":[0,0.3,0.6],"frame_size":512}`))
	f.Add([]byte(`{"r_values":[10,6,2],"trials":2,"n":300,"gmle_frame":64,"trp_frame":96,"contention_window":8}`))
	f.Add([]byte(`{"n":300,"trials":2,"r_values":[6],"disable_indicator_vector":true,"protocols":["CICP","SICP","CICP"]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return // not a spec-shaped body; nothing to assert
		}
		if spec.Validate() != nil {
			return // invalid specs never reach Key() in the service
		}

		key, err := spec.Key()
		if err != nil {
			t.Fatalf("valid spec has no key: %v\n%s", err, raw)
		}
		if len(key) != 64 || strings.ToLower(key) != key {
			t.Fatalf("key %q is not lowercase hex sha256", key)
		}

		// Canonical JSON round-trips to the same key.
		canon, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var rt JobSpec
		if err := json.Unmarshal(canon, &rt); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		rtKey, err := rt.Key()
		if err != nil {
			t.Fatal(err)
		}
		if rtKey != key {
			t.Fatalf("round trip changed the key: %s -> %s\n%s", key, rtKey, canon)
		}

		// Field order cannot matter: push the body through a generic map
		// (Go re-marshals map keys sorted, i.e. in a different order than
		// the input) and decode again. UseNumber keeps uint64 seeds and
		// float axes bit-exact through the detour.
		var generic map[string]any
		gdec := json.NewDecoder(bytes.NewReader(raw))
		gdec.UseNumber()
		if err := gdec.Decode(&generic); err != nil {
			return // e.g. duplicate keys accepted by struct decode paths
		}
		reordered, err := json.Marshal(generic)
		if err != nil {
			t.Fatal(err)
		}
		var spec2 JobSpec
		if err := json.Unmarshal(reordered, &spec2); err != nil {
			t.Fatalf("reordered body does not decode: %v\n%s", err, reordered)
		}
		key2, err := spec2.Key()
		if err != nil {
			t.Fatal(err)
		}
		if key2 != key {
			t.Fatalf("field order changed the key:\n%s\n%s", raw, reordered)
		}

		// Normalization is idempotent — canonical JSON is a fixed point.
		canon2, err := spec.Normalized().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("normalization is not idempotent:\n%s\n%s", canon, canon2)
		}

		// The normalized spec still validates and totals the same work.
		norm := spec.Normalized()
		if err := norm.Validate(); err != nil {
			t.Fatalf("normalized spec invalid: %v\n%s", err, canon)
		}
		if norm.TotalItems() != spec.Normalized().TotalItems() {
			t.Fatal("TotalItems unstable across normalization")
		}
	})
}

// FuzzCheckpointReplay: checkpoint files are input from outside the
// program (an earlier process, a damaged disk). Loading any bytes must not
// panic and must keep the row contract — at most one record per index,
// every kept record with an index >= 0 and a non-empty row, seqs dense
// 1..k — and whatever it keeps, the append path writes back to a file that
// reloads to the same records.
func FuzzCheckpointReplay(f *testing.F) {
	f.Add([]byte(`{"seq":1,"index":0,"label":"r=2","elapsed_ms":1.5,"row":{"r":2}}` + "\n" +
		`{"seq":2,"index":1,"label":"r=4","elapsed_ms":2,"row":{"r":4}}` + "\n"))
	f.Add([]byte(`{"seq":1,"index":3,"label":"n=500","elapsed_ms":0,"row":[1, 2 ,3]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := &checkpointDir{dir: t.TempDir()}
		if err := os.WriteFile(c.path("in"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var l pointLog
		c.load("in", &l)
		seen := make(map[int]bool)
		for i, r := range l.records {
			if r.Seq != i+1 {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
			if r.Index < 0 || len(r.Row) == 0 {
				t.Fatalf("kept invalid record %+v", r)
			}
			if seen[r.Index] {
				t.Fatalf("index %d kept twice", r.Index)
			}
			seen[r.Index] = true
		}

		writeRecs(c, "out", l.records...)
		var back pointLog
		c.load("out", &back)
		if len(back.records) != len(l.records) {
			t.Fatalf("rewrite kept %d of %d records", len(back.records), len(l.records))
		}
		for i := range l.records {
			want, _ := json.Marshal(l.records[i])
			got, _ := json.Marshal(back.records[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d reloads as %s, want %s", i, got, want)
			}
		}
	})
}
