package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The result cache is the set of done jobs in the table that still hold
// their payload, bounded LRU-first by CacheCapacity. These tests drive it
// through the manager.

// runDone submits spec v and waits for it to finish.
func runDone(t *testing.T, m *Manager, v int) string {
	t.Helper()
	st, _, err := m.Submit(testSpec(v), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateDone {
		t.Fatalf("job %d = %+v", v, final)
	}
	return st.ID
}

// hasPayload reports whether id's result is still served.
func hasPayload(m *Manager, id string) bool {
	payload, _, _ := m.Result(id)
	return payload != nil
}

func TestCacheBasic(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: 2, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	id := runDone(t, m, 0) // one miss
	if _, outcome, err := m.Submit(testSpec(0), SubmitOptions{}); err != nil || outcome != OutcomeCached {
		t.Fatalf("resubmit = %v, %v", outcome, err)
	}
	payload, _, _ := m.Result(id)
	s := m.tableStats()
	if m.hits.Load() != 1 || m.misses.Load() != 1 || s.payloads != 1 || s.payloadBytes != int64(len(payload)) {
		t.Errorf("hits %d misses %d, table %+v", m.hits.Load(), m.misses.Load(), s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: 2, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	a, b := runDone(t, m, 0), runDone(t, m, 1)
	m.Submit(testSpec(0), SubmitOptions{}) // hit refreshes a: b is now least recently used
	c := runDone(t, m, 2)
	if hasPayload(m, b) {
		t.Error("b's payload should have been dropped")
	}
	for _, id := range []string{a, c} {
		if !hasPayload(m, id) {
			t.Errorf("%s dropped unexpectedly", id)
		}
	}
	// The job stays in the table without its payload: 410, not 404.
	if _, st, ok := m.Result(b); !ok || st.State != StateDone {
		t.Errorf("b after eviction = %+v, %v", st, ok)
	}
	if got, s := m.evictions.Load(), m.tableStats(); got != 1 || s.payloads != 2 {
		t.Errorf("evictions %d, table %+v", got, s)
	}
}

// TestCachePeekDoesNotCount: result serving must not inflate hit/miss
// counters or disturb recency.
func TestCachePeekDoesNotCount(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: 2, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	a, _ := runDone(t, m, 0), runDone(t, m, 1)
	hits, misses := m.hits.Load(), m.misses.Load()
	for i := 0; i < 5; i++ {
		m.Result(a)
		m.Result("nope")
	}
	if m.hits.Load() != hits || m.misses.Load() != misses {
		t.Errorf("Result moved the counters: hits %d misses %d", m.hits.Load(), m.misses.Load())
	}
	// Recency untouched: a (older) is still the LRU victim.
	runDone(t, m, 2)
	if hasPayload(m, a) {
		t.Error("Result refreshed recency")
	}
}

func TestCacheUnbounded(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: -1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	for i := 0; i < 300; i++ {
		runDone(t, m, i)
	}
	if s := m.tableStats(); s.payloads != 300 || m.evictions.Load() != 0 {
		t.Errorf("unbounded cache: table %+v, evictions %d", s, m.evictions.Load())
	}
}

// TestCacheRePut: a done job whose payload was dropped re-runs on
// resubmission (restoring every point from its rows) and holds the same
// bytes once more, counted once.
func TestCacheRePut(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: 1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	a := runDone(t, m, 0)
	first, _, _ := m.Result(a)
	runDone(t, m, 1) // drops a's payload
	st, outcome, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil || outcome != OutcomeQueued || st.ResumedPoints != testSpec(0).PointCount() {
		t.Fatalf("resubmit after drop = %+v, %v, %v", st, outcome, err)
	}
	waitTerminal(t, m, a)
	again, _, _ := m.Result(a)
	if string(again) != string(first) {
		t.Errorf("re-put payload differs:\n%s\nvs\n%s", again, first)
	}
	if s := m.tableStats(); s.payloads != 1 || s.payloadBytes != int64(len(first)) {
		t.Errorf("re-put table = %+v", s)
	}
}

func TestCacheConcurrent(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueDepth: 64, CacheCapacity: 4, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st, _, err := m.Submit(testSpec((g*7+i)%12), SubmitOptions{})
				if err != nil {
					continue
				}
				m.Result(st.ID)
				m.tableStats()
			}
		}(g)
	}
	wg.Wait()
	if s := m.tableStats(); s.payloads > 4 {
		t.Errorf("capacity exceeded: %+v", s)
	}
}

// TestCacheWriteProm: the counters render as valid exposition families.
func TestCacheWriteProm(t *testing.T) {
	m := NewManager(Config{Workers: 1, CacheCapacity: 1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	a := runDone(t, m, 0)
	m.Submit(testSpec(0), SubmitOptions{}) // hit
	runDone(t, m, 1)                       // miss; drops a's payload
	b, _, _ := m.Result(m.Jobs()[1].ID)
	if hasPayload(m, a) {
		t.Fatal("a's payload survived")
	}
	out := promText(t, m.Registry())
	for _, want := range []string{
		"netags_serve_cache_hits_total 1",
		"netags_serve_cache_misses_total 2",
		"netags_serve_cache_evictions_total 1",
		"netags_serve_cache_entries 1",
		fmt.Sprintf("netags_serve_cache_bytes %d", len(b)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
