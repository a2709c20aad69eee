package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

// startWorker boots a real in-process serve manager and returns its
// address.
func startWorker(t *testing.T) string {
	t.Helper()
	m := serve.NewManager(serve.Config{Workers: 1})
	srv, err := serve.StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestRouterEndToEnd boots the router daemon in-process over two real
// workers, runs a job through it with the serve.Client helper, and checks
// the cluster's state on /metrics — then drains it via context cancel.
func TestRouterEndToEnd(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-backends", w1 + "," + w2,
			"-ts-resolution", "50ms",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("router exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("router never became ready")
	}

	cl := &serve.Client{BaseURL: "http://" + addr}
	callCtx, callCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer callCancel()
	spec := serve.JobSpec{N: 100, Trials: 1, RValues: []float64{6}, Seed: 3}
	sub, err := cl.Submit(callCtx, spec, serve.SubmitOptions{Workers: 1})
	if err != nil {
		t.Fatalf("submit through router: %v", err)
	}
	if st, err := cl.Await(callCtx, sub.ID, nil); err != nil || st.State != serve.StateDone {
		t.Fatalf("wait = %+v, %v", st, err)
	}
	p1, err := cl.Result(callCtx, sub.ID)
	if err != nil || p1 == nil {
		t.Fatalf("result: %v", err)
	}
	// The resubmission is a cache hit on the owning shard — same id, same
	// bytes.
	again, err := cl.Submit(callCtx, spec, serve.SubmitOptions{Workers: 1})
	if err != nil || again.ID != sub.ID {
		t.Fatalf("resubmit = %+v, %v", again, err)
	}
	p2, err := cl.Result(callCtx, sub.ID)
	if err != nil || !bytes.Equal(p1, p2) {
		t.Fatalf("result unstable across reads: %v", err)
	}

	// /metrics reflects the membership and the traffic: every breaker
	// closed (state 0), and forwarded requests counted.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{w1, w2} {
		if want := `netags_cluster_breaker_state{backend="` + w + `"} 0` + "\n"; !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	if !bytes.Contains(metrics, []byte("netags_cluster_backends 2\n")) ||
		!bytes.Contains(metrics, []byte("netags_cluster_forwarded_total ")) ||
		bytes.Contains(metrics, []byte("netags_cluster_forwarded_total 0\n")) {
		t.Fatalf("/metrics shows the wrong membership or no forwarded requests:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain")
	}
}

func TestRouterBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), nil, nil); err == nil {
		t.Fatal("missing -backends accepted")
	}
	if err := run(context.Background(), []string{"-backends", " , "}, nil); err == nil {
		t.Fatal("blank -backends accepted")
	}
	if err := run(context.Background(), []string{"-backends", "x:1", "-addr", "256.0.0.1:bad"}, nil); err == nil {
		t.Fatal("unbindable address accepted")
	}
	if err := run(context.Background(), []string{"-backends", "x:1", "-log-level", "noisy"}, nil); err == nil {
		t.Fatal("bad log level accepted")
	}
	if err := run(context.Background(), []string{"-backends", "x:1", "-slo-rules", "{not json"}, nil); err == nil {
		t.Fatal("bad slo rules accepted")
	}
	// Rules naming a series the router never records, or burning a series
	// against itself, fail startup and name the rule.
	for rule, rules := range map[string]string{
		"typo": `[{"name":"typo","window_s":10,"series":"cluster_breaker_opn"}]`,
		"self": `[{"name":"self","window_s":10,"good":"cluster_forwarded_total","total":"cluster_forwarded_total","objective":0.99}]`,
	} {
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-backends", "x:1", "-slo-rules", rules}, nil)
		if err == nil || !strings.Contains(err.Error(), rule) {
			t.Errorf("rule %s: err = %v, want a startup error naming it", rule, err)
		}
	}
}
