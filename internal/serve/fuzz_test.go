package serve

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/url"
	"os"
	"strings"
	"testing"

	"netags/internal/experiment"
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
		if norm.PointCount() != spec.PointCount() {
			t.Fatal("PointCount unstable across normalization")
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

// FuzzStreamCursor: the stream's ?after= cursor is the one client-chosen
// number the stream reads. On a finished 4-point job, any string must
// either be an integer in 0..4 (empty means 0) and replay exactly the
// point seqs past it, strictly ascending, then one state event — or get
// the 400 envelope. math/big is the oracle's parser, independent of the
// handler's strconv.
func FuzzStreamCursor(f *testing.F) {
	for _, s := range []string{"", "0", "2", "4", "5", "-1", "-0", "+3", "007", "x", " 1", "1e0", "99999999999999999999"} {
		f.Add(s)
	}
	stream := doneStreamJob(f)
	points := streamSpec().PointCount()
	f.Fuzz(func(t *testing.T, after string) {
		cursor, ok := new(big.Int), after == ""
		if !ok {
			_, ok = cursor.SetString(after, 10)
			ok = ok && cursor.Sign() >= 0 && cursor.Cmp(big.NewInt(int64(points))) <= 0
		}
		code, body := getBody(t, stream+"?after="+url.QueryEscape(after))
		if !ok {
			var env errorEnvelope
			if code != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Error.Code != CodeBadRequest {
				t.Fatalf("after=%q: %d %s, want the 400 bad_request envelope", after, code, body)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("after=%q: status %d %s", after, code, body)
		}
		last, states := int(cursor.Int64()), 0
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var ev StreamEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("after=%q: bad line %q: %v", after, line, err)
			}
			switch {
			case states > 0:
				t.Fatalf("after=%q: event after the state event: %s", after, body)
			case ev.Event == "state":
				states++
			case ev.Event != "point" || ev.Seq <= last:
				t.Fatalf("after=%q: point seqs not strictly ascending past the cursor: %s", after, body)
			default:
				last = ev.Seq
			}
		}
		if states != 1 || last != points {
			t.Fatalf("after=%q: %d state events after seq %d, want 1 after seq %d: %s", after, states, last, points, body)
		}
	})
}

// TestJobSpecKeyPinned pins the content address of one spec per shape the
// normalizer has to canonicalize: each sweep kind, omitted versus explicit
// defaults, fields the kind never reads, an unsorted range axis, and
// duplicate or reordered protocols. Job keys name cached results and
// checkpoint files, so a key that moves orphans both: any change to these
// values is a breaking change to the service, never a refactor.
func TestJobSpecKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		key  string
	}{
		{"range minimal", JobSpec{N: 300, Trials: 2, RValues: []float64{6}},
			"35ec773329b1a099084c97dddc3ca899b36881faef2ba63dfe75ea958ae00731"},
		{"range explicit defaults", JobSpec{Sweep: experiment.SweepRange, N: 300, Radius: 30, Trials: 2, RValues: []float64{6},
			Protocols: []string{"SICP", "GMLE-CCM", "TRP-CCM"}, GMLEFrame: 1671, TRPFrame: 3228},
			"35ec773329b1a099084c97dddc3ca899b36881faef2ba63dfe75ea958ae00731"},
		{"range ignored fields", JobSpec{N: 300, Trials: 2, RValues: []float64{6},
			NValues: []int{100}, R: 4, LossValues: []float64{0.5}, FrameSize: 99},
			"35ec773329b1a099084c97dddc3ca899b36881faef2ba63dfe75ea958ae00731"},
		{"range unsorted axis", JobSpec{N: 300, Trials: 2, RValues: []float64{10, 2, 6}, Seed: 7},
			"778b053bc03d599f9fd1e4b810927d99e13993b78a3cda2aa30f2d56c1d486b2"},
		{"range protocols dup reorder", JobSpec{N: 300, Trials: 2, RValues: []float64{6},
			Protocols: []string{"TRP-CCM", "CICP", "SICP", "CICP"}},
			"9a3b703dd6399feb330999f567f74844aec696e880269137ff58886ed2b5a518"},
		{"range knobs", JobSpec{N: 500, Radius: 20, Trials: 3, RValues: []float64{2, 4}, GMLEFrame: 64, TRPFrame: 96,
			ContentionWindow: 8, DisableIndicatorVector: true},
			"74d1f66ad5840cb9778628e527a438487e9e65361148920252a8e9553d5dd24e"},
		{"density minimal", JobSpec{Sweep: experiment.SweepDensity, Trials: 2, R: 6, NValues: []int{100, 300}},
			"bb83157f697c2e3d9e21ab2c9b789be1382d88e141864f41bb685d567fccfb90"},
		{"density explicit radius", JobSpec{Sweep: experiment.SweepDensity, Radius: 30, Trials: 2, R: 6, NValues: []int{100, 300}},
			"bb83157f697c2e3d9e21ab2c9b789be1382d88e141864f41bb685d567fccfb90"},
		{"density ignored fields", JobSpec{Sweep: experiment.SweepDensity, N: 5000, Trials: 2, R: 6, NValues: []int{300, 100},
			RValues: []float64{2}, Protocols: []string{"SICP"}, GMLEFrame: 77, TRPFrame: 5, ContentionWindow: 3,
			DisableIndicatorVector: true, LossValues: []float64{0.5}, FrameSize: 12, Seed: 9},
			"96e9f2366760f1b5a18c97d963b163205143557d0ac32189f4c8045ae0fe1895"},
		{"loss minimal", JobSpec{Sweep: experiment.SweepLoss, N: 200, Trials: 1, R: 6, LossValues: []float64{0, 0.3}},
			"30ced39f3a05d53bfdc999e45896ee741ea4a8b010b8bbb36380120f1c4d4540"},
		{"loss reordered axis", JobSpec{Sweep: experiment.SweepLoss, N: 200, Trials: 1, R: 6, LossValues: []float64{0.3, 0}},
			"8c466b8df4e216dc49feba03160bee119bbda049222a4a8954b4df3b45d04fd7"},
		{"loss ignored fields", JobSpec{Sweep: experiment.SweepLoss, N: 200, Radius: 30, Trials: 1, R: 6, LossValues: []float64{0, 0.3},
			FrameSize: 512, RValues: []float64{2}, Protocols: []string{"CICP"}, GMLEFrame: 77, TRPFrame: 5,
			ContentionWindow: 3, DisableIndicatorVector: true, NValues: []int{100}, Seed: 42},
			"a7a69cc7d8a258097ab060635d39882a3b2cde1a0fcde0097c126b9f57570311"},
	} {
		got, err := tc.spec.Key()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.spec.Validate(); err != nil {
			t.Errorf("%s: pinned spec does not validate: %v", tc.name, err)
		}
		if got != tc.key {
			t.Errorf("%s: key = %s, pinned %s", tc.name, got, tc.key)
		}
	}
}
