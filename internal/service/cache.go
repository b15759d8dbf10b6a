package service

import (
	"container/list"
	"sync"

	"braid/internal/uarch"
)

// resultCache is a keyed LRU over successful simulation results. The
// simulator is deterministic, so a point key (uarch.PointKey) fully
// identifies the Stats it produces and a hit is bit-identical to rerunning.
// Failures are never cached: a fault or limit must re-execute so a fixed
// input or a raised budget can succeed.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	st  *uarch.Stats
	est *uarch.SampleEstimate // non-nil only for sampled results
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// cloneStats copies a Stats record. Stats is a flat struct of counters, so
// a value copy is a deep copy; handing out clones keeps the cache's master
// copy (and a flight's shared result) immune to caller mutation.
func cloneStats(st *uarch.Stats) *uarch.Stats {
	if st == nil {
		return nil
	}
	c := *st
	return &c
}

// cloneEstimate copies a sampled run's estimate record (a flat struct, like
// Stats); nil stays nil for exact results.
func cloneEstimate(est *uarch.SampleEstimate) *uarch.SampleEstimate {
	if est == nil {
		return nil
	}
	c := *est
	return &c
}

func (c *resultCache) get(key string) (*uarch.Stats, *uarch.SampleEstimate, bool) {
	if c.cap <= 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return cloneStats(e.st), cloneEstimate(e.est), true
}

func (c *resultCache) put(key string, st *uarch.Stats, est *uarch.SampleEstimate) {
	if c.cap <= 0 {
		return
	}
	st = cloneStats(st) // the cache owns its copy; the caller keeps theirs
	est = cloneEstimate(est)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.st, e.est = st, est
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, st: st, est: est})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight is one in-progress simulation that concurrent identical requests
// coalesce onto: the leader runs it, followers wait on done and read the
// shared outcome. Fields are written by the leader before done closes.
type flight struct {
	done  chan struct{}
	st    *uarch.Stats
	est   *uarch.SampleEstimate // non-nil only for sampled runs
	err   error
	simMS float64
}

// flightGroup deduplicates concurrent simulations by cache key, in the
// style of singleflight (stdlib-only, so hand-rolled here).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key and whether the caller is its leader
// (first in, responsible for running the simulation and completing the
// flight).
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// complete publishes the leader's outcome and releases the followers. The
// key is removed before done closes, so requests arriving after completion
// start fresh (and hit the result cache on success).
func (g *flightGroup) complete(key string, fl *flight, st *uarch.Stats, est *uarch.SampleEstimate, err error, simMS float64) {
	fl.st, fl.est, fl.err, fl.simMS = st, est, err, simMS
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
