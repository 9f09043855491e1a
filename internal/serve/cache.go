package serve

// The result cache: repeated queries are the common case of a multi-tenant
// service ("the same dashboard refreshing for a thousand users"), and the
// operator's determinism — identical input and aggregates yield a
// bit-identical result regardless of budgets, workers or spill behaviour —
// makes the cached body exactly the body a fresh execution would produce.
//
// Three layers keep hits nearly free and misses cheap:
//
//   - a bloom pre-filter in front of the LRU: a key the filter has never
//     seen is a definite miss, answered with four hash probes and no lock
//     (the SNIPPETS.md bloom-guarded LRU idiom, ~80 ns misses);
//   - a byte-bounded LRU holding pre-marshaled response bodies;
//   - singleflight dedup: identical queries arriving while one is already
//     executing wait for that leader instead of burning budget on N
//     identical executions. Followers share only success — a failed
//     leader's waiters retry admission themselves, because the leader's
//     failure (its deadline, its cancellation) is not theirs.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheEntry is one cached result body.
type cacheEntry struct {
	key    string // full canonical query key (collision guard)
	body   []byte // pre-marshaled row+trailer JSONL
	groups int
	elem   *list.Element
}

// bloomBits is the pre-filter size: 2^18 bits = 32 KiB, fine for the
// ~thousands of distinct queries a byte-bounded result cache can hold.
const bloomBits = 1 << 18

// resultCache is the bloom-pre-filtered LRU with singleflight dedup.
// A nil *resultCache disables caching (every lookup misses, Do always
// executes).
type resultCache struct {
	maxBytes int64

	// bloom is a bit set over canonical keys ever inserted. It admits
	// false positives (they fall through to an LRU miss) but no false
	// negatives, so a clear probe answers "miss" without the lock.
	// Inserts-only; rebuilt from live entries when saturation would make
	// false positives common.
	bloom        [bloomBits / 64]atomic.Uint64
	bloomInserts atomic.Int64

	mu      sync.Mutex
	entries map[uint64]*cacheEntry // by 64-bit key hash
	order   *list.List             // front = most recent
	bytes   int64

	flights map[uint64]*flight

	metrics *Metrics
}

// flight is one in-progress execution of a query, shared by followers.
type flight struct {
	done   chan struct{}
	body   []byte
	groups int
	ok     bool
}

func newResultCache(maxBytes int64, m *Metrics) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[uint64]*cacheEntry),
		order:    list.New(),
		flights:  make(map[uint64]*flight),
		metrics:  m,
	}
}

// fnv1a is the canonical key hash (64-bit FNV-1a, inlined to avoid the
// hash.Hash allocation on the hit path).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bloomProbes derives four probe positions from the key hash.
func bloomProbes(h uint64) [4]uint32 {
	var p [4]uint32
	for i := range p {
		p[i] = uint32(h>>(i*16)) % bloomBits
		h = h*0x9e3779b97f4a7c15 + 1
	}
	return p
}

func (c *resultCache) bloomContains(h uint64) bool {
	for _, p := range bloomProbes(h) {
		if c.bloom[p/64].Load()&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

func (c *resultCache) bloomAdd(h uint64) {
	for _, p := range bloomProbes(h) {
		word := &c.bloom[p/64]
		for {
			old := word.Load()
			if old&(1<<(p%64)) != 0 || word.CompareAndSwap(old, old|1<<(p%64)) {
				break
			}
		}
	}
	// Rebuild once the insert count reaches the classic m/(k·ln2)-ish
	// saturation point: stale bits from evicted entries otherwise erode
	// the pre-filter into a pass-through.
	if c.bloomInserts.Add(1) > bloomBits/16 {
		c.rebuildBloom()
	}
}

// rebuildBloom resets the filter to the live entries. Holding the lock
// keeps it consistent with the map; at 32 KiB the sweep is microseconds.
func (c *resultCache) rebuildBloom() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.bloom {
		c.bloom[i].Store(0)
	}
	n := int64(0)
	for h := range c.entries {
		for _, p := range bloomProbes(h) {
			word := &c.bloom[p/64]
			word.Store(word.Load() | 1<<(p%64))
		}
		n++
	}
	c.bloomInserts.Store(n)
}

// get returns the cached body for the canonical key, or ok=false.
func (c *resultCache) get(key string) (body []byte, groups int, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	h := fnv1a(key)
	if !c.bloomContains(h) {
		return nil, 0, false // definite miss, no lock taken
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[h]
	if !ok || e.key != key {
		return nil, 0, false
	}
	c.order.MoveToFront(e.elem)
	return e.body, e.groups, true
}

// put inserts a result body, evicting least-recently-used entries to stay
// under the byte bound. Bodies larger than the whole cache are not stored.
// An entry is charged its buffer's capacity, not its length: encodeBody
// sizes the buffer from an upper bound on non-integral floats.
func (c *resultCache) put(key string, body []byte, groups int) {
	if c == nil || int64(cap(body)) > c.maxBytes {
		return
	}
	h := fnv1a(key)
	c.mu.Lock()
	if old, ok := c.entries[h]; ok {
		// Same hash: refresh (same key) or replace (collision — rare
		// enough that keeping the newcomer is fine).
		c.bytes -= int64(cap(old.body))
		c.order.Remove(old.elem)
		delete(c.entries, h)
	}
	e := &cacheEntry{key: key, body: body, groups: groups}
	e.elem = c.order.PushFront(e)
	c.entries[h] = e
	c.bytes += int64(cap(body))
	for c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, fnv1a(ev.key))
		c.bytes -= int64(cap(ev.body))
	}
	if c.metrics != nil {
		c.metrics.CacheEntries.Store(int64(len(c.entries)))
		c.metrics.CacheBytes.Store(c.bytes)
	}
	c.mu.Unlock()
	c.bloomAdd(h)
}

// join registers interest in an in-flight execution of key. It returns
// either an existing flight to wait on (lead=false) or a fresh one the
// caller must complete via finish (lead=true). A nil cache always leads
// with a nil flight.
func (c *resultCache) join(key string) (f *flight, lead bool) {
	if c == nil {
		return nil, true
	}
	h := fnv1a(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[h]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[h] = f
	return f, true
}

// finish completes a leader's flight: on ok the body is published to
// followers and the cache; either way the flight is deregistered and
// followers are released.
func (c *resultCache) finish(key string, f *flight, body []byte, groups int, ok bool) {
	if c == nil {
		return
	}
	h := fnv1a(key)
	f.body, f.groups, f.ok = body, groups, ok
	c.mu.Lock()
	delete(c.flights, h)
	c.mu.Unlock()
	close(f.done)
	if ok {
		c.put(key, body, groups)
	}
}
