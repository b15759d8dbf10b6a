package remote

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend owns
// replicas virtual nodes, so load spreads evenly while a key's owner moves
// only when its arc's backend set changes. Routing the point key (the
// backend's cache key) through the ring is what makes a repeated design point land on
// the backend that already holds it in its result LRU: the sweep's working
// set shards across the fleet instead of duplicating into every cache.
type ring struct {
	hashes []uint64 // sorted virtual-node positions
	owner  []int    // owner[i] = backend index of hashes[i]
	n      int      // distinct backends
}

func newRing(backends []string, replicas int) *ring {
	r := &ring{n: len(backends)}
	for i, b := range backends {
		for v := 0; v < replicas; v++ {
			r.hashes = append(r.hashes, hashKey(fmt.Sprintf("%s#%d", b, v)))
			r.owner = append(r.owner, i)
		}
	}
	sort.Sort(ringOrder{r})
	return r
}

// candidates returns every backend index in ring order starting at key's
// successor node: candidates[0] is the consistent-hash owner, the rest are
// the failover order. The slice is freshly allocated per call.
func (r *ring) candidates(key string) []int {
	out := make([]int, 0, r.n)
	if r.n == 0 {
		return out
	}
	seen := make([]bool, r.n)
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for i := 0; len(out) < r.n && i < len(r.hashes); i++ {
		b := r.owner[(start+i)%len(r.hashes)]
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ringOrder sorts the virtual nodes and their owners together.
type ringOrder struct{ r *ring }

func (o ringOrder) Len() int           { return len(o.r.hashes) }
func (o ringOrder) Less(i, j int) bool { return o.r.hashes[i] < o.r.hashes[j] }
func (o ringOrder) Swap(i, j int) {
	o.r.hashes[i], o.r.hashes[j] = o.r.hashes[j], o.r.hashes[i]
	o.r.owner[i], o.r.owner[j] = o.r.owner[j], o.r.owner[i]
}
