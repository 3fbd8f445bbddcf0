// Package lru is the one cache primitive behind swappd's result cache, the
// core.Store layers and the artifact vault: a bounded least-recently-used
// map with a singleflight table, so concurrent misses on one key collapse
// onto a single fill.
//
// The cache owns recency, eviction and in-flight bookkeeping only. How a
// fill runs (detached in its own goroutine, or inline under a request
// context) is the caller's policy: Lookup elects a leader, the leader
// computes however it likes and publishes with Finish.
package lru

import (
	"container/list"
	"context"
	"sync"
)

// Cache is a bounded LRU map from K to V with singleflight fills. The zero
// value is not usable; build one with New. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	onEvict func(K, V)

	mu       sync.Mutex
	max      int
	ll       *list.List          // front = most recently used
	entries  map[K]*list.Element // element value is *item[K, V]
	inflight map[K]*Call[V]
}

type item[K comparable, V any] struct {
	key K
	val V
}

// Call is one in-flight fill, shared by every caller that looked its key
// up while it ran.
type Call[V any] struct {
	done chan struct{} // closed by Finish, after val and err are set
	val  V
	err  error
}

// New builds an empty cache holding at most capacity entries (at least
// one). onEvict, when non-nil, observes every entry the capacity bound
// evicts; it runs under the cache lock and must not call back into the
// cache.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		onEvict:  onEvict,
		max:      capacity,
		ll:       list.New(),
		entries:  map[K]*list.Element{},
		inflight: map[K]*Call[V]{},
	}
}

// Get returns the resident value for key, refreshing its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*item[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Lookup resolves key in one critical section. A resident value comes
// back with a nil call, its recency refreshed. Otherwise call is the key's
// in-flight fill: an existing one to Wait on (leader false), or a new one
// (leader true) whose caller must compute the value and pass the outcome
// to Finish.
func (c *Cache[K, V]) Lookup(key K) (v V, call *Call[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*item[K, V]).val, nil, false
	}
	if call, ok := c.inflight[key]; ok {
		return v, call, false
	}
	call = &Call[V]{done: make(chan struct{})}
	c.inflight[key] = call
	return v, call, true
}

// Finish publishes a leader's outcome. A successful value becomes the
// most recently used entry (replacing any value Add published meanwhile);
// a failed one is not cached. Either way the fill leaves the in-flight
// table and every waiter is released with (v, err). Finish returns the
// entry count after the update.
func (c *Cache[K, V]) Finish(key K, call *Call[V], v V, err error) int {
	c.mu.Lock()
	call.val, call.err = v, err
	delete(c.inflight, key)
	if err == nil {
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			el.Value.(*item[K, V]).val = v
		} else {
			c.insert(key, v)
		}
	}
	n := c.ll.Len()
	c.mu.Unlock()
	close(call.done)
	return n
}

// Wait blocks until the fill finishes or ctx ends, whichever is first. A
// waiter that gives up returns ctx.Err(); the fill itself carries on.
func (call *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-call.done:
		return call.val, call.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Add inserts v under key unless the key is resident. It returns the value
// now stored under key and whether it is v: a resident value wins, and
// neither its value nor its recency changes.
func (c *Cache[K, V]) Add(key K, v V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*item[K, V]).val, false
	}
	c.insert(key, v)
	return v, true
}

// insert pushes a new most-recent entry and evicts down to capacity.
// Callers hold c.mu.
func (c *Cache[K, V]) insert(key K, v V) {
	c.entries[key] = c.ll.PushFront(&item[K, V]{key: key, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Remove(c.ll.Back()).(*item[K, V])
		delete(c.entries, oldest.key)
		if c.onEvict != nil {
			c.onEvict(oldest.key, oldest.val)
		}
	}
}

// Len reports the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Range calls f for every resident entry, oldest first. It iterates a
// copy taken under the lock, so f may call back into the cache; recency is
// not refreshed.
func (c *Cache[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	items := make([]item[K, V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		items = append(items, *el.Value.(*item[K, V]))
	}
	c.mu.Unlock()
	for _, it := range items {
		f(it.key, it.val)
	}
}
