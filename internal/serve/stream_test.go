package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"
)

// steppedRun returns a run override that emits one point per receive on
// step, so tests control exactly when each point completes.
func steppedRun(step <-chan struct{}) func(context.Context, JobSpec, int, runHooks) error {
	return func(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
		n := spec.Normalized()
		for i := 0; i < n.PointCount(); i++ {
			if h.skip != nil && i < len(h.skip) && h.skip[i] {
				continue
			}
			select {
			case <-step:
			case <-ctx.Done():
				return ctx.Err()
			}
			h.pointDone(PointRecord{
				Index: i,
				Label: n.PointLabel(i),
				Row:   json.RawMessage(fmt.Sprintf(`{"point":%d}`, i)),
			})
		}
		return nil
	}
}

func streamSpec() JobSpec {
	return JobSpec{N: 100, Trials: 1, RValues: []float64{3, 4, 5, 6}}
}

// TestStreamLiveThenReconnect: a client follows a running job's stream,
// drops the connection halfway, reconnects with ?after=<cursor>, and
// receives exactly the missed events plus the final state — no duplicates,
// no gaps.
func TestStreamLiveThenReconnect(t *testing.T) {
	step := make(chan struct{}, 8)
	ts, _ := newTestServer(t, Config{Workers: 1, run: steppedRun(step)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, streamSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: watch the first two points arrive live.
	s1, err := cl.Stream(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for i := 0; i < 2; i++ {
		step <- struct{}{}
		if !s1.Next() {
			t.Fatalf("stream ended early: %v", s1.Err())
		}
		ev := s1.Event()
		if ev.Event != "point" || ev.Seq != i+1 || ev.Point == nil || ev.Point.Index != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
		last = ev.Seq
	}
	s1.Close() // dropped connection

	// Finish the job while nobody is connected.
	step <- struct{}{}
	step <- struct{}{}

	// Reconnect from the cursor: only seq 3, 4, then the state event.
	s2, err := cl.Stream(ctx, sub.ID, last)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var seqs []int
	var final *JobStatus
	for s2.Next() {
		ev := s2.Event()
		switch ev.Event {
		case "point":
			seqs = append(seqs, ev.Seq)
		case "state":
			final = ev.State
		}
		if final != nil {
			break
		}
	}
	if s2.Err() != nil {
		t.Fatal(s2.Err())
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Errorf("reconnect seqs = %v, want [3 4]", seqs)
	}
	if final == nil || final.State != StateDone {
		t.Errorf("final state event = %+v, want done", final)
	}
}

// TestAwaitDeliversPointsAndFinalState: Await follows the stream to the
// terminal status, invoking onPoint once per point.
func TestAwaitDeliversPointsAndFinalState(t *testing.T) {
	step := make(chan struct{}, 8)
	ts, _ := newTestServer(t, Config{Workers: 1, run: steppedRun(step)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	spec := streamSpec()
	sub, err := cl.Submit(ctx, spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.PointCount(); i++ {
		step <- struct{}{}
	}
	var got []int
	final, err := cl.Await(ctx, sub.ID, func(rec PointRecord) {
		got = append(got, rec.Index)
	})
	if err != nil || final.State != StateDone {
		t.Fatalf("Await = %+v, %v", final, err)
	}
	if len(got) != spec.PointCount() {
		t.Fatalf("Await delivered %d points %v", len(got), got)
	}
	for i, idx := range got {
		if idx != i {
			t.Errorf("point order %v", got)
		}
	}
}

// TestAwaitUnknownJobErrors: Await surfaces a 404 as a typed APIError
// instead of reconnect-looping forever.
func TestAwaitUnknownJobErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, run: stubRun(nil, nil)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := cl.Await(ctx, "0000000000000000000000000000000000000000000000000000000000000000", nil)
	if err == nil {
		t.Fatal("Await on unknown job succeeded")
	}
}

// doneStreamJob submits streamSpec on a stub run and awaits it, so its
// stream replays all 4 points and closes.
func doneStreamJob(t testing.TB) string {
	t.Helper()
	ts, _ := newTestServer(t, Config{Workers: 1, run: stubRun(nil, nil)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := cl.Submit(ctx, streamSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Await(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	return ts.URL + "/api/v1/jobs/" + sub.ID + "/stream"
}

// TestStreamNDJSONFraming: the stream is application/x-ndjson, one JSON
// event per line.
func TestStreamNDJSONFraming(t *testing.T) {
	resp, err := http.Get(doneStreamJob(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not NDJSON: %v", lines, err)
		}
		lines++
	}
	if lines != 5 { // 4 points + state
		t.Errorf("NDJSON lines = %d, want 5", lines)
	}
}

// TestStreamDoneJobReplays: streaming an already-finished job replays the
// point seqs past the ?after= cursor and closes at once with a state event
// carrying the last seq; a cursor past the point count gets the 400
// envelope (FuzzStreamCursor covers every other string).
func TestStreamDoneJobReplays(t *testing.T) {
	url := doneStreamJob(t)
	for _, tc := range []struct {
		after string
		seqs  []int // point seqs replayed; nil with bad set
		bad   bool
	}{
		{after: "", seqs: []int{1, 2, 3, 4}},
		{after: "2", seqs: []int{3, 4}},
		{after: "4", seqs: []int{}},
		{after: "5", bad: true}, // past the job's 4 points
	} {
		code, body := getBody(t, url+"?after="+tc.after)
		if tc.bad {
			var env errorEnvelope
			if code != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Error.Code != CodeBadRequest {
				t.Errorf("after=%q: %d %s, want the 400 bad_request envelope", tc.after, code, body)
			}
			continue
		}
		seqs, state := []int{}, 0
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var ev StreamEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("after=%q: bad line %q: %v", tc.after, line, err)
			}
			if ev.Event == "state" {
				state = ev.Seq
				continue
			}
			seqs = append(seqs, ev.Seq)
		}
		if code != http.StatusOK || !slices.Equal(seqs, tc.seqs) || state != 4 {
			t.Errorf("after=%q: %d seqs %v, state seq %d; want %v, state seq 4", tc.after, code, seqs, state, tc.seqs)
		}
	}
}
