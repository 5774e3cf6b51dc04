// Package flight provides keyed singleflight memoisation: concurrent
// requests for the same key compute the value exactly once while the rest
// wait, and the computed value (or error) is retained for every later
// request. It is the concurrency backbone shared by the experiment Runner's
// golden/result memos, the table cache and the serving tier's codec cache.
package flight

import (
	"fmt"
	"sync"
)

// call is one singleflight slot: the first requester computes, concurrent
// requesters wait on done and read the shared value.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Group memoises keyed computations with singleflight semantics. The zero
// value is ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

// Do returns the memoised value for key, computing it with fn exactly once
// no matter how many goroutines ask concurrently.
func (g *Group[T]) Do(key string, fn func() (T, error)) (T, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[T]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	// done must close even if fn panics (the pipeline panics on corrupted
	// round trips): a recovered panic higher up must not leave waiters — or
	// any future requester of this key — blocked forever.
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("flight: panic computing %s: %v", key, r)
			panic(r)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err
}

// Len returns the number of keys ever requested (completed or in flight).
func (g *Group[T]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
