// Client for the versioned jobs API. Every method takes a context, non-2xx
// replies come back as typed errors (*APIError, with ErrBusy wrapping 429
// backpressure so callers can match it with errors.As and honor
// Retry-After), Stream tails a job's per-point NDJSON with transparent
// cursoring, and Await combines streaming with reconnect-on-drop so a
// flaky connection degrades to a late answer instead of an error.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// BackendHeader is the response header a cluster router sets to the
// backend worker that actually answered — shard-aware error context for
// clients behind a router, absent when talking to a worker directly.
const BackendHeader = "X-CCM-Backend"

// Client is a helper over the jobs API — used by cmd/ccmserve and handy for
// driving a remote server programmatically. The zero value is not usable;
// set BaseURL ("http://host:port").
type Client struct {
	// BaseURL is the server root, without a trailing slash.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives the client's lifecycle logs: stream reconnects at
	// Warn, terminal awaits at Info. nil discards.
	Logger *slog.Logger
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// APIError is a non-2xx reply from the server.
type APIError struct {
	StatusCode int
	// Code is the machine-matchable error code from the envelope
	// ("queue_full", "not_found", ...); empty when the server sent no
	// envelope.
	Code    string
	Message string
	// RetryAfter echoes the Retry-After header on 429 backpressure replies.
	RetryAfter string
	// Backend echoes the router's X-CCM-Backend header: which shard
	// produced the error. Empty when talking to a worker directly.
	Backend string
}

func (e *APIError) Error() string {
	via := ""
	if e.Backend != "" {
		via = " [backend " + e.Backend + "]"
	}
	if e.Code != "" {
		return fmt.Sprintf("serve client: status %d (%s)%s: %s", e.StatusCode, e.Code, via, e.Message)
	}
	return fmt.Sprintf("serve client: status %d%s: %s", e.StatusCode, via, e.Message)
}

// ErrBusy is the typed form of 429 queue backpressure: the server is full
// and said when to come back. Match with errors.As.
type ErrBusy struct {
	// RetryAfter is the server's backoff hint (0 when the header was
	// missing or unparseable — pick your own backoff).
	RetryAfter time.Duration
	Message    string
}

func (e *ErrBusy) Error() string {
	return fmt.Sprintf("serve client: server busy (retry after %s): %s", e.RetryAfter, e.Message)
}

// apiError decodes an error reply into the matching typed error.
func apiError(statusCode int, header http.Header, raw []byte) error {
	var env errorEnvelope
	msg := string(bytes.TrimSpace(raw))
	code := ""
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		msg, code = env.Error.Message, env.Error.Code
	}
	retryAfter := header.Get("Retry-After")
	if statusCode == http.StatusTooManyRequests {
		d := time.Duration(0)
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
		return &ErrBusy{RetryAfter: d, Message: msg}
	}
	return &APIError{
		StatusCode: statusCode, Code: code, Message: msg,
		RetryAfter: retryAfter, Backend: header.Get(BackendHeader),
	}
}

func (c *Client) do(ctx context.Context, method, path string, body any, out any, accept ...int) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+APIPrefix+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, code := range accept {
		if resp.StatusCode == code {
			if out == nil {
				return nil
			}
			return json.Unmarshal(raw, out)
		}
	}
	return apiError(resp.StatusCode, resp.Header, raw)
}

// Submit posts a job and returns the server's {id, status} reply. A full
// queue comes back as *ErrBusy carrying the server's Retry-After; waiting
// it out is the caller's choice (ccmload's is a full-jitter retry loop).
func (c *Client) Submit(ctx context.Context, spec JobSpec, opts SubmitOptions) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, "/jobs", SubmitRequest{
		Spec:     spec,
		Workers:  opts.Workers,
		Priority: opts.Priority,
		Client:   opts.Client,
	}, &out, http.StatusOK, http.StatusAccepted)
	return out, err
}

// Result fetches a finished job's rendered result payload. While the job
// is still queued or running it returns a nil payload with no error
// (HTTP 202) — poll, or use Await.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+APIPrefix+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return raw, nil
	case http.StatusAccepted:
		return nil, nil
	}
	return nil, apiError(resp.StatusCode, resp.Header, raw)
}

// Stream is an iterator over a job's per-point event stream. Use it like
// bufio.Scanner: for s.Next() { ev := s.Event() ... }; s.Err(); s.Close().
type Stream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	ev   StreamEvent
	err  error
}

// Stream opens the job's NDJSON tail starting after seq `after` (0 = from
// the beginning). The iterator yields every completed point in order and
// finally one "state" event when the job settles. It does not reconnect —
// Await layers that on top.
func (c *Client) Stream(ctx context.Context, id string, after int) (*Stream, error) {
	url := c.BaseURL + APIPrefix + "/jobs/" + id + "/stream"
	if after > 0 {
		url += "?after=" + strconv.Itoa(after)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, apiError(resp.StatusCode, resp.Header, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return &Stream{body: resp.Body, sc: sc}, nil
}

// Next advances to the next event. It returns false at end of stream or on
// error; check Err afterwards.
func (s *Stream) Next() bool {
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &s.ev); err != nil {
			s.err = fmt.Errorf("serve client: bad stream event: %w", err)
			return false
		}
		return true
	}
	s.err = s.sc.Err()
	return false
}

// Event returns the current event (valid after a true Next).
func (s *Stream) Event() StreamEvent { return s.ev }

// Err returns the terminal error, nil on a clean end of stream.
func (s *Stream) Err() error { return s.err }

// Close releases the connection. Safe to call at any point and repeatedly.
func (s *Stream) Close() error { return s.body.Close() }

// Await follows the job's stream until it reaches a terminal state and
// returns the final status, invoking onPoint (when non-nil) for every point
// event. Dropped connections are tolerated: Await reconnects from the last
// seq it saw, so each point is delivered at most once and a mid-stream
// network blip costs nothing but latency. It returns early only when ctx
// cancels or the server rejects the stream (e.g. unknown job).
func (c *Client) Await(ctx context.Context, id string, onPoint func(PointRecord)) (JobStatus, error) {
	last := 0
	reconnects := 0
	for {
		st, done, err := c.awaitOnce(ctx, id, &last, onPoint)
		if done {
			if err == nil {
				c.log().Info("job await finished",
					"job", id, "state", string(st.State), "reconnects", reconnects)
			}
			return st, err
		}
		if ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		// Connection dropped mid-stream; back off briefly and resume from
		// the last seq delivered. The resumed stream carries our cursor, so
		// the server marks the reconnect on the job's trace timeline.
		reconnects++
		c.log().Warn("stream dropped; reconnecting",
			"job", id, "after_seq", last, "reconnects", reconnects, "err", fmt.Sprint(err))
		t := time.NewTimer(100 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return JobStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}

// awaitOnce follows one stream connection. done reports a definitive
// outcome (terminal state reached, or a non-retryable error); done false
// means the connection dropped and the caller should reconnect.
func (c *Client) awaitOnce(ctx context.Context, id string, last *int, onPoint func(PointRecord)) (JobStatus, bool, error) {
	s, err := c.Stream(ctx, id, *last)
	if err != nil {
		if ctx.Err() != nil {
			return JobStatus{}, true, ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return JobStatus{}, true, err // the server answered: not a blip
		}
		return JobStatus{}, false, err // dial/transport error: reconnect
	}
	defer s.Close()
	for s.Next() {
		ev := s.Event()
		switch ev.Event {
		case "point":
			if ev.Point != nil {
				if ev.Point.Seq > *last {
					*last = ev.Point.Seq
					if onPoint != nil {
						onPoint(*ev.Point)
					}
				}
			}
		case "state":
			if ev.State != nil && ev.State.State.Terminal() {
				return *ev.State, true, nil
			}
		}
	}
	if ctx.Err() != nil {
		return JobStatus{}, true, ctx.Err()
	}
	return JobStatus{}, false, s.Err()
}
