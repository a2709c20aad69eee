package serve

import (
	"container/list"
	"sync"

	"netags/internal/obs"
)

// Cache is the content-addressed result store: spec key (hex SHA-256 of the
// canonical spec JSON) → rendered result payload bytes. Eviction is LRU by
// entry count; Get and Put both refresh recency. Payloads are immutable by
// contract — callers must not mutate the returned slice — which keeps hits
// allocation-free.
//
// Because the key is a content address of a deterministic computation, the
// cache never needs invalidation: an entry can only ever be refilled with
// the same bytes.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
	bytes     int64
}

type cacheEntry struct {
	key     string
	payload []byte
}

// NewCache returns a cache bounded to capacity entries. capacity <= 0 means
// unbounded (no eviction).
func NewCache(capacity int) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the payload for key and whether it was present, updating
// recency and the hit/miss counters.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// Peek returns the payload without touching recency or the counters (the
// result endpoint uses it so serving a stored result repeatedly does not
// masquerade as cache traffic).
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).payload, true
}

// Put stores the payload under key, evicting least-recently-used entries
// beyond capacity. Re-putting an existing key refreshes recency; the bytes
// are identical by the content-address contract.
func (c *Cache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	c.items[key] = el
	c.bytes += int64(len(payload))
	for c.capacity > 0 && c.ll.Len() > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.payload))
		c.evictions++
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes,
	}
}

// register adds the cache families to reg.
func (c *Cache) register(reg *obs.Registry) {
	stat := func(fn func(s CacheStats) int64) func() int64 {
		return func() int64 { return fn(c.Stats()) }
	}
	reg.CounterFunc("netags_serve_cache_hits_total", "Result cache hits (submission deduplicated without execution).",
		stat(func(s CacheStats) int64 { return s.Hits }))
	reg.CounterFunc("netags_serve_cache_misses_total", "Result cache misses (submission needed queueing or execution).",
		stat(func(s CacheStats) int64 { return s.Misses }))
	reg.CounterFunc("netags_serve_cache_evictions_total", "Result cache LRU evictions.",
		stat(func(s CacheStats) int64 { return s.Evictions }))
	reg.GaugeFunc("netags_serve_cache_entries", "Result cache resident entries.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("netags_serve_cache_bytes", "Result cache resident payload bytes.",
		func() float64 { return float64(c.Stats().Bytes) })
}
