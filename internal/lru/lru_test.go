package lru

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// keys lists the cache's resident keys, oldest first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	c.Range(func(k K, _ V) { out = append(out, k) })
	return out
}

// fill resolves key through the singleflight path, as a leader that
// publishes v.
func fill[K comparable, V any](t *testing.T, c *Cache[K, V], key K, v V) {
	t.Helper()
	_, call, leader := c.Lookup(key)
	if !leader {
		t.Fatalf("Lookup(%v) did not elect a leader", key)
	}
	c.Finish(key, call, v, nil)
}

func TestEvictionOrderAndHook(t *testing.T) {
	type evicted struct {
		key string
		val int
	}
	var got []evicted
	c := New(2, func(k string, v int) { got = append(got, evicted{k, v}) })
	c.Add("a", 1)
	fill(t, c, "b", 2)
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b
	fill(t, c, "d", 4)
	want := []evicted{{"b", 2}, {"a", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("evictions = %v, want %v", got, want)
	}
	if k := keys(c); !reflect.DeepEqual(k, []string{"c", "d"}) {
		t.Errorf("resident = %v, want [c d]", k)
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestAddResidentKeepsValueAndRecency(t *testing.T) {
	c := New[string, int](2, nil)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, added := c.Add("a", 99); added || v != 1 {
		t.Errorf("Add on resident = %d, %t; want 1, false", v, added)
	}
	c.Add("c", 3) // a is still the oldest: the resident Add left it there
	if k := keys(c); !reflect.DeepEqual(k, []string{"b", "c"}) {
		t.Errorf("resident = %v, want [b c]: Add on a resident key refreshed its recency", k)
	}
	if v, added := c.Add("a", 4); !added || v != 4 {
		t.Errorf("Add after eviction = %d, %t; want 4, true", v, added)
	}
}

func TestRangeOldestFirst(t *testing.T) {
	c := New[int, string](8, nil)
	for i := 0; i < 5; i++ {
		c.Add(i, fmt.Sprint(i))
	}
	c.Get(1) // 1 becomes the most recent
	if k := keys(c); !reflect.DeepEqual(k, []int{0, 2, 3, 4, 1}) {
		t.Errorf("Range order = %v, want [0 2 3 4 1]", k)
	}
	// Range iterates a copy: f may call back into the cache.
	var seen []int
	c.Range(func(k int, _ string) {
		c.Add(100+k, "x")
		seen = append(seen, k)
	})
	if !reflect.DeepEqual(seen, []int{0, 2, 3, 4, 1}) {
		t.Errorf("Range calling back into the cache saw %v, want [0 2 3 4 1]", seen)
	}
}

func TestFinishErrorCachesNothing(t *testing.T) {
	c := New[string, int](4, nil)
	_, call, leader := c.Lookup("k")
	if !leader {
		t.Fatal("first Lookup not the leader")
	}
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		_, joined, leader := c.Lookup("k")
		if leader || joined != call {
			t.Fatal("concurrent Lookup did not join the in-flight fill")
		}
		go func() {
			_, err := joined.Wait(context.Background())
			errs <- err
		}()
	}
	boom := errors.New("boom")
	if n := c.Finish("k", call, 7, boom); n != 0 {
		t.Errorf("Finish(error) left %d entries", n)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != boom {
			t.Errorf("waiter got %v, want %v", err, boom)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Error("failed fill was cached")
	}
	// The key is fillable again.
	if _, _, leader := c.Lookup("k"); !leader {
		t.Error("failed fill left the key in flight")
	}
}

func TestWaitReturnsCtxErrWhileFillContinues(t *testing.T) {
	c := New[string, int](4, nil)
	_, call, _ := c.Lookup("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := call.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
	// The abandoned fill is still in flight and still lands.
	if _, joined, leader := c.Lookup("k"); leader || joined != call {
		t.Fatal("giving up a Wait cancelled the fill")
	}
	c.Finish("k", call, 5, nil)
	if v, err := call.Wait(context.Background()); v != 5 || err != nil {
		t.Errorf("Wait after Finish = %d, %v", v, err)
	}
	if v, ok := c.Get("k"); !ok || v != 5 {
		t.Errorf("Get = %d, %t; want 5, true", v, ok)
	}
}

// TestConcurrentHammer drives Lookup/Finish/Get from many goroutines over
// a small key space and a cache smaller than it, so fills, joins, hits and
// evictions interleave (run with -race). Every caller must observe its
// key's value.
func TestConcurrentHammer(t *testing.T) {
	c := New[int, int](3, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := (g + i) % 6
				if v, ok := c.Get(key); ok && v != key*10 {
					t.Errorf("Get(%d) = %d", key, v)
					return
				}
				v, call, leader := c.Lookup(key)
				switch {
				case call == nil:
				case leader:
					var err error
					if i%7 == 0 {
						err = errors.New("transient")
					}
					c.Finish(key, call, key*10, err)
					continue
				default:
					var err error
					if v, err = call.Wait(context.Background()); err != nil {
						continue
					}
				}
				if v != key*10 {
					t.Errorf("Lookup(%d) = %d", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 3 {
		t.Errorf("Len = %d beyond capacity 3", n)
	}
}
