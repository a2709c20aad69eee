package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netags/internal/obs"
)

func TestCacheBasic(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("payload-a"))
	got, ok := c.Get("a")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != int64(len("payload-a")) {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	c.Get("a") // refresh a: b is now least recently used
	c.Put("c", []byte("C"))
	if _, ok := c.Peek("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Peek(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 2 {
		t.Errorf("stats after eviction = %+v", s)
	}
}

// TestCachePeekDoesNotCount: result serving must not inflate hit/miss
// counters or disturb recency.
func TestCachePeekDoesNotCount(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	for i := 0; i < 5; i++ {
		c.Peek("a")
		c.Peek("nope")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("Peek moved the counters: %+v", s)
	}
	// Recency untouched: "a" (older Put) is still the LRU victim.
	c.Put("c", []byte("C"))
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed recency")
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache(-1)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("x"))
	}
	if s := c.Stats(); s.Entries != 1000 || s.Evictions != 0 {
		t.Errorf("unbounded cache stats = %+v", s)
	}
}

func TestCacheRePut(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("AA"))
	c.Put("a", []byte("AA"))
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 2 {
		t.Errorf("re-put stats = %+v", s)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
				c.Peek(k)
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 16 {
		t.Errorf("capacity exceeded: %+v", s)
	}
}

// TestCacheWriteProm: the counters render as valid exposition families.
func TestCacheWriteProm(t *testing.T) {
	c := NewCache(1)
	c.Put("a", []byte("A"))
	c.Get("a")
	c.Get("b")
	c.Put("b", []byte("B")) // evicts a
	reg := obs.NewRegistry()
	c.register(reg)
	out := promText(t, reg)
	for _, want := range []string{
		"netags_serve_cache_hits_total 1",
		"netags_serve_cache_misses_total 1",
		"netags_serve_cache_evictions_total 1",
		"netags_serve_cache_entries 1",
		"netags_serve_cache_bytes 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
