package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

// FuzzHashRing drives a random add/remove/lookup script against the ring
// and asserts its two load-bearing invariants exactly (no statistical
// slack):
//
//  1. Determinism: a ring rebuilt from the same membership set — in any
//     insertion order — places every probed key identically, and OwnerSeq
//     is a permutation of all backends headed by the primary owner.
//  2. Minimal movement: adding a backend only moves keys TO it; removing
//     a backend only moves the keys it owned. No unrelated key changes
//     owner on any membership change.
//
// The script bytes decode as (op, backend-id) pairs: op&3 selects
// add/remove/toggle, the id picks one of 16 candidate backends.
func FuzzHashRing(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x05})
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63, 0x74})
	f.Add([]byte{0xff, 0x00, 0x81, 0x42, 0xc3, 0x24, 0xa5, 0x66, 0x07})
	f.Add([]byte{})

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761+17)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		members := map[string]bool{}
		ring := NewRing(nil, 16)
		for _, b := range script {
			backend := fmt.Sprintf("w%02d:9000", (b>>2)&0x0f)
			add := b&1 == 0
			if b&2 != 0 { // toggle
				add = !members[backend]
			}

			before := ring
			if add && !members[backend] {
				members[backend] = true
				ring = NewRing(append(slices.Clone(before.Backends()), backend), 16)
				// Minimal movement: every key that moved must now belong to
				// the arrival.
				for _, k := range keys {
					bo, ao := before.Owner(k), ring.Owner(k)
					if bo < 0 {
						continue
					}
					if before.Backends()[bo] != ring.Backends()[ao] &&
						ring.Backends()[ao] != backend {
						t.Fatalf("add %q moved key %s to unrelated %q",
							backend, k, ring.Backends()[ao])
					}
				}
			} else if !add && members[backend] {
				delete(members, backend)
				ring = NewRing(without(before.Backends(), backend), 16)
				// Minimal movement: only the departure's keys move.
				for _, k := range keys {
					bo := before.Owner(k)
					if bo < 0 || ring.Len() == 0 {
						continue
					}
					if before.Backends()[bo] != backend &&
						before.Backends()[bo] != ring.Backends()[ring.Owner(k)] {
						t.Fatalf("remove %q moved key %s owned by %q",
							backend, k, before.Backends()[bo])
					}
				}
			}

			// Determinism: a rebuild from the membership set in a rotated
			// order routes identically.
			list := make([]string, 0, len(members))
			for m := range members { // map order is deliberately random
				list = append(list, m)
			}
			rebuilt := NewRing(list, 16)
			var seq []int
			for _, k := range keys {
				o1, o2 := ring.Owner(k), rebuilt.Owner(k)
				if (o1 < 0) != (o2 < 0) {
					t.Fatalf("rebuild disagreed on emptiness for key %s", k)
				}
				if o1 < 0 {
					continue
				}
				if ring.Backends()[o1] != rebuilt.Backends()[o2] {
					t.Fatalf("rebuild moved key %s: %q vs %q",
						k, ring.Backends()[o1], rebuilt.Backends()[o2])
				}
				seq = ring.OwnerSeq(k, seq)
				if len(seq) != ring.Len() {
					t.Fatalf("OwnerSeq covers %d of %d backends", len(seq), ring.Len())
				}
				if seq[0] != o1 {
					t.Fatalf("OwnerSeq[0]=%d, Owner=%d", seq[0], o1)
				}
				seen := 0
				for _, o := range seq {
					if o < 0 || o >= ring.Len() {
						t.Fatalf("OwnerSeq out-of-range owner %d", o)
					}
					seen |= 1 << o
				}
				if seen != (1<<ring.Len())-1 {
					t.Fatalf("OwnerSeq %v not a permutation of %d backends", seq, ring.Len())
				}
			}
		}
	})
}

// tripRecorder is a Transport that answers every round trip 200 without
// a network and records the requests it was handed.
type tripRecorder struct{ reqs []*http.Request }

func (tr *tripRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	tr.reqs = append(tr.reqs, r)
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// FuzzRouterPath drives Handler's job routing with arbitrary path tails
// under /api/v1/jobs/ and arbitrary queries, through a recording
// Transport, and checks against the worker's own {id} patterns:
//
//  1. No input panics, and each request makes at most one round trip.
//  2. A path with no id the worker would read (an empty id included)
//     makes no round trip; it answers the 404 envelope or, for a path
//     the mux cleans, a redirect.
//  3. A path with an id goes to Backends()[Owner(id)] for the id the
//     worker reads — a 64-hex job id, or one holding an escaped slash —
//     with the escaped path and the query unchanged.
func FuzzRouterPath(f *testing.F) {
	hexID := fmt.Sprintf("%064x", 0xfeed)
	f.Add("a%2Fb/result", "")
	f.Add(hexID, "")
	f.Add(hexID+"/stream", "after=3")
	f.Add(hexID+"%2Fx/result", "")
	f.Add("", "")
	f.Add("%2F", "")
	f.Add("a/../b", "x=%zz")

	f.Fuzz(func(t *testing.T, tail, query string) {
		target := "http://router" + serve.APIPrefix + "/jobs/" + tail
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			return
		}
		workerID, matched := "", false
		worker := http.NewServeMux()
		read := func(_ http.ResponseWriter, r *http.Request) { workerID, matched = r.PathValue("id"), true }
		worker.HandleFunc(serve.APIPrefix+"/jobs/{id}", read)
		worker.HandleFunc(serve.APIPrefix+"/jobs/{id}/{rest...}", read)
		worker.ServeHTTP(httptest.NewRecorder(), req)

		tr := &tripRecorder{}
		rt, err := NewRouter(RouterConfig{
			Backends:  []string{"10.0.0.1:9080", "10.0.0.2:9080", "10.0.0.3:9080"},
			Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.Handler(httpserve.Options{}).ServeHTTP(rec, req)

		if len(tr.reqs) > 1 {
			t.Fatalf("%s: %d round trips, want at most 1", target, len(tr.reqs))
		}
		if !matched {
			if len(tr.reqs) != 0 {
				t.Fatalf("%s: no worker id, yet routed to %s", target, tr.reqs[0].URL.Host)
			}
			if rec.Code >= 300 && rec.Code < 400 {
				return
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != serve.CodeNotFound {
				t.Fatalf("%s: no worker id, answered %d %q, want the 404 envelope", target, rec.Code, rec.Body)
			}
			return
		}
		if len(tr.reqs) != 1 {
			t.Fatalf("%s: worker id %q made %d round trips, want 1", target, workerID, len(tr.reqs))
		}
		out := tr.reqs[0].URL
		if want := rt.Ring().Backends()[rt.Ring().Owner(workerID)]; out.Host != want {
			t.Fatalf("%s: worker id %q routed to %s, its owner is %s", target, workerID, out.Host, want)
		}
		if out.EscapedPath() != req.URL.EscapedPath() || out.RawQuery != req.URL.RawQuery {
			t.Fatalf("%s: forwarded as %s?%s", target, out.EscapedPath(), out.RawQuery)
		}
	})
}
