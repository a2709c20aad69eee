package serve

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"netags/internal/obs/httpserve"
)

// TestServerEndToEnd boots a real listener via StartServer and runs one
// tiny job through the wire with the client helper.
func TestServerEndToEnd(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	srv, err := StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := &Client{BaseURL: "http://" + srv.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := cl.Submit(ctx, JobSpec{N: 100, Trials: 1, RValues: []float64{6}}, SubmitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Await(ctx, sub.ID, nil)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait = %+v, %v", st, err)
	}
	payload, err := cl.Result(ctx, sub.ID)
	if err != nil || payload == nil {
		t.Fatalf("result = %v, %v", payload, err)
	}
}

// TestServerCloseFreshConns: a drain answers a request written on a
// connection accepted just before it began, closes a connection that never
// sends one after ReadHeaderTimeout, and so finishes well before
// http.Server's own 5 s wait for such connections.
func TestServerCloseFreshConns(t *testing.T) {
	m := NewManager(Config{Workers: 1, run: stubRun(nil, nil)})
	srv, err := StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	get := func(c net.Conn) (*http.Response, error) {
		if _, err := c.Write([]byte("GET /api/v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
			return nil, err
		}
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err == nil {
			resp.Body.Close()
		}
		return resp, err
	}
	late, idle := dial(), dial()
	// The listener accepts in dial order: once a later connection has been
	// served, both earlier ones are accepted and fresh.
	if _, err := get(dial()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Shutdown has begun once the listener refuses connections.
	for {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	resp, err := get(late)
	if err != nil {
		t.Fatalf("request written during the drain got no response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle fresh connection read data, want it closed")
	}
	if err := <-closed; err != nil {
		t.Errorf("Close = %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("drain took %v, want about ReadHeaderTimeout", d)
	}
}

// TestServerCloseIdempotentConcurrent: many goroutines racing Close all
// return, agree on the result, and the listener is actually down after.
func TestServerCloseIdempotentConcurrent(t *testing.T) {
	m := NewManager(Config{Workers: 1, run: stubRun(nil, nil)})
	srv, err := StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Errorf("caller %d: %v differs from %v", i, err, errs[0])
		}
	}
	if err := srv.Close(); err != errs[0] {
		t.Errorf("late Close = %v, want %v", err, errs[0])
	}
	cl := http.Client{Timeout: time.Second}
	if _, err := cl.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still serving after Close")
	}
}

// TestServerCloseDrainsInFlight: a running job completes before Close
// returns when it fits inside the shutdown budget.
func TestServerCloseDrainsInFlight(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, run: stubRun(nil, gate)})
	srv, err := StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if final, _ := m.Job(st.ID); final.State != StateDone {
		t.Errorf("in-flight job after Close = %s, want done", final.State)
	}
}
