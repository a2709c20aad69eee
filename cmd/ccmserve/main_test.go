package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"netags/internal/serve"
)

// TestServeEndToEnd boots the daemon in-process on an ephemeral port and
// drives it with the serve.Client helper: concurrent identical submissions
// resolve to one content address with identical payloads, a resubmission
// is a cache hit, and canceling the context drains the server cleanly.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pool", "2", "-queue", "8", "-drain", "5s"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	cl := &serve.Client{BaseURL: "http://" + addr}
	spec := serve.JobSpec{N: 120, Trials: 1, RValues: []float64{4, 6}, Seed: 11}
	callCtx, callCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer callCancel()

	// Concurrent identical submissions: all land on one job id.
	const submitters = 4
	subs := make([]serve.SubmitResponse, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := cl.Submit(callCtx, spec, serve.SubmitOptions{Workers: 1})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			subs[i] = sub
		}(i)
	}
	wg.Wait()
	for i := 1; i < submitters; i++ {
		if subs[i].ID != subs[0].ID {
			t.Fatalf("submitter %d got id %s, want %s", i, subs[i].ID, subs[0].ID)
		}
	}

	if st, err := cl.Await(callCtx, subs[0].ID, nil); err != nil || st.State != serve.StateDone {
		t.Fatalf("wait = %+v, %v", st, err)
	}
	p1, err := cl.Result(callCtx, subs[0].ID)
	if err != nil || p1 == nil {
		t.Fatalf("result: %v", err)
	}
	p2, err := cl.Result(callCtx, subs[0].ID)
	if err != nil || !bytes.Equal(p1, p2) {
		t.Fatalf("result unstable across reads: %v", err)
	}

	// Resubmission after completion is a pure cache hit.
	again, err := cl.Submit(callCtx, spec, serve.SubmitOptions{Workers: 1})
	if err != nil || again.Status != serve.OutcomeCached || again.ID != subs[0].ID {
		t.Fatalf("resubmit = %+v, %v, want cached hit on %s", again, err, subs[0].ID)
	}

	// Context cancellation triggers the graceful drain path.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}

func TestServeBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, nil); err == nil {
		t.Fatal("unbindable address accepted")
	}
	if err := run(context.Background(), []string{"-log-level", "noisy"}, nil); err == nil {
		t.Fatal("bad log level accepted")
	}
	if err := run(context.Background(), []string{"-log-format", "xml"}, nil); err == nil {
		t.Fatal("bad log format accepted")
	}
	// A rule naming a series no source records fails startup and names
	// the rule.
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-slo-rules",
		`[{"name":"typo","window_s":10,"good":"serve_e2e_ms_le_4095","total":"slo_e2e_total","objective":0.9}]`}, nil)
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Errorf("err = %v, want a startup error naming rule typo", err)
	}
}
