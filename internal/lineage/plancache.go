package lineage

import (
	"container/list"
	"errors"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/value"
)

// This file lifts IndexProj's per-evaluator plan cache behind an injectable,
// concurrency-safe interface so a long-running server can share one compiled-
// plan cache across requests, evaluators, and tenants. Compiled plans are
// pure functions of (workflow specification, query binding port, |q|, focus)
// — never of the values in q, because the index projection rule is
// positional (Prop. 1) — so the cache holds one template per query shape,
// compiled on the identity index, and every query instantiates it against
// its own index (resolve, below). The cache key must carry more than the
// shape:
//
//   - a scope (the tenant namespace in provd), so one tenant's plans are
//     never served under another tenant's key space, and
//   - the store's topology generation (the shard-manifest parameters for a
//     sharded store), so an evaluator attached to a store that was reopened
//     with a different ring never answers from plans cached under the old
//     topology. The probes themselves are spec-level and would survive a
//     reshard, but executor-facing plan state must not outlive the store
//     layout it was compiled against — keying on the generation makes the
//     stale-reuse class of bug structurally impossible.
//
// The focus set enters the key as an order-independent fingerprint, so a
// hit costs no sorting; a template records its focus set and a hit verifies
// it, so a fingerprint collision can cost a compilation but never an answer.

// PlanCache is the compiled-plan cache surface IndexProj compiles through.
// Implementations must be safe for concurrent use. Get returns the cached
// plan for a key; Add inserts a freshly compiled plan and returns the winner
// (the existing plan if another goroutine raced the same compilation in
// first — callers must use the returned plan, not their argument). The
// plans IndexProj stores are templates (see CompiledPlan), opaque to the
// cache.
type PlanCache interface {
	Get(key string) (*CompiledPlan, bool)
	Add(key string, plan *CompiledPlan) *CompiledPlan
}

// mapPlanCache is the private per-evaluator cache: the original read-mostly
// RWMutex map, unbounded (one evaluator sees one workflow's query space).
type mapPlanCache struct {
	mu    sync.RWMutex
	plans map[string]*CompiledPlan
}

func newMapPlanCache() *mapPlanCache {
	return &mapPlanCache{plans: make(map[string]*CompiledPlan)}
}

func (c *mapPlanCache) Get(key string) (*CompiledPlan, bool) {
	c.mu.RLock()
	p, ok := c.plans[key]
	c.mu.RUnlock()
	return p, ok
}

func (c *mapPlanCache) Add(key string, plan *CompiledPlan) *CompiledPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.plans[key]; ok {
		return cached // another goroutine won the compilation race
	}
	c.plans[key] = plan
	return plan
}

func (c *mapPlanCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// SharedPlanCache is a bounded, concurrency-safe, LRU-evicting plan cache
// meant to be shared across evaluators and requests (provd holds exactly
// one). Hits promote; inserts beyond the capacity evict the least recently
// used entry. Hit/miss/eviction totals are exposed both as obs counters
// (lineage.plancache.*) and as per-instance accessors for tests.
type SharedPlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type planEntry struct {
	key  string
	plan *CompiledPlan
}

// DefaultPlanCacheSize bounds a SharedPlanCache built with capacity <= 0.
const DefaultPlanCacheSize = 1024

// NewSharedPlanCache returns an empty shared cache holding at most capacity
// plans (DefaultPlanCacheSize when capacity <= 0).
func NewSharedPlanCache(capacity int) *SharedPlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &SharedPlanCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Get returns the plan cached under key, promoting it to most recently used.
func (c *SharedPlanCache) Get(key string) (*CompiledPlan, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		pcMisses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	pcHits.Add(1)
	return el.Value.(*planEntry).plan, true
}

// Add inserts a plan under key and returns the winning plan (the cached one
// when a racing goroutine inserted first). Inserting over a full cache
// evicts the least recently used entry.
func (c *SharedPlanCache) Add(key string, plan *CompiledPlan) *CompiledPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, plan: plan})
	for len(c.entries) > c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
		c.evictions.Add(1)
		pcEvictions.Add(1)
	}
	return plan
}

// Len returns the number of cached plans.
func (c *SharedPlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Capacity returns the maximum number of cached plans.
func (c *SharedPlanCache) Capacity() int { return c.capacity }

// Hits returns the cumulative Get hits.
func (c *SharedPlanCache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative Get misses.
func (c *SharedPlanCache) Misses() int64 { return c.misses.Load() }

// Evictions returns the cumulative LRU evictions.
func (c *SharedPlanCache) Evictions() int64 { return c.evictions.Load() }

// topologyGen fingerprints the store layout a compiled plan is cached
// against. Stores that partition data (shard.ShardedStore) implement
// store.TopologyVersioner and report their manifest-pinned ring parameters;
// everything else — including a nil querier, compile-only evaluators — is
// one undivided keyspace.
func topologyGen(q store.LineageQuerier) string {
	if tv, ok := q.(store.TopologyVersioner); ok {
		return tv.TopologyGen()
	}
	return "single"
}

// planKey builds the full cache key of one query shape: the evaluator's
// scope (tenant namespace; "" for private evaluators), the workflow name,
// the store topology generation, the query binding's port, |q|, and the
// focus fingerprint and size. Components are joined with \x01, which cannot
// appear in any of them.
func planKey(scope, wfName, topoGen, proc, port string, n int, focus Focus) string {
	var buf [160]byte
	b := append(buf[:0], scope...)
	for _, part := range [...]string{wfName, topoGen, proc, port} {
		b = append(append(b, 1), part...)
	}
	b = strconv.AppendInt(append(b, 1), int64(n), 10)
	b = strconv.AppendUint(append(b, 1), focusFingerprint(focus), 16)
	b = strconv.AppendInt(append(b, 1), int64(len(focus)), 10)
	return string(b)
}

var focusSeed = maphash.MakeSeed()

// focusFingerprint is the sum of the focus names' hashes under one package
// seed: independent of map order, and allocation-free.
func focusFingerprint(f Focus) uint64 {
	var sum uint64
	for name := range f {
		sum += maphash.String(focusSeed, name)
	}
	return sum
}

// sameFocus reports whether two focus sets are equal.
func sameFocus(a, b Focus) bool {
	if len(a) != len(b) {
		return false
	}
	for name, in := range a {
		if other, ok := b[name]; !ok || other != in {
			return false
		}
	}
	return true
}

// probeShape says how one template probe resolves against a query index q.
type probeShape struct {
	contiguous bool // the probe reads q[lo:hi]
	lo, hi     int
	// twin is the previous probe of equal (proc, port, |index|), or -1:
	// only those can resolve equal to this one.
	twin int
}

// probeGroup is what two probes must share to resolve equal.
type probeGroup struct {
	proc, port string
	n          int
}

func newProbeShape(pos value.Index, twin int) probeShape {
	s := probeShape{contiguous: true, twin: twin}
	if len(pos) > 0 {
		s.lo, s.hi = pos[0], pos[0]+len(pos)
	}
	for k, at := range pos {
		s.contiguous = s.contiguous && at == s.lo+k
	}
	return s
}

// resolve returns the index probe i reads for the query index q, and false
// when the probe resolves equal to an earlier one (it is then skipped, so a
// template runs exactly the probes a compilation on q would). A concrete
// plan's probes resolve to themselves. A contiguous probe is a capped
// subslice of q — no allocation — and any other probe one gather.
func (p *CompiledPlan) resolve(i int, q value.Index) (value.Index, bool) {
	pos := p.Probes[i].Index
	if p.shapes == nil {
		return pos, true
	}
	s := &p.shapes[i]
	for j := s.twin; j >= 0; j = p.shapes[j].twin {
		if sameAt(q, pos, p.Probes[j].Index) {
			return nil, false
		}
	}
	switch {
	case s.contiguous && s.lo == s.hi:
		return value.EmptyIndex, true
	case s.contiguous:
		return q[s.lo:s.hi:s.hi], true
	}
	out := make(value.Index, len(pos))
	for k, at := range pos {
		out[k] = q[at]
	}
	return out, true
}

// sameAt reports whether q read at positions a and at positions b (of equal
// length) gives the same index.
func sameAt(q, a, b value.Index) bool {
	for k := range a {
		if q[a[k]] != q[b[k]] {
			return false
		}
	}
	return true
}

// errTemplatePlan is what the public executors return for a cached template
// (obtained through PlanCache.Get), which only resolves against a query index.
var errTemplatePlan = errors.New("lineage: plan is a cached template; Compile the query for an executable plan")

// instantiate returns the concrete plan of a template for the query index q.
// Its probe indices may share storage with q.
func (p *CompiledPlan) instantiate(q value.Index) *CompiledPlan {
	out := &CompiledPlan{Probes: make([]Probe, 0, len(p.Probes))}
	for i, pr := range p.Probes {
		if idx, ok := p.resolve(i, q); ok {
			pr.Index = idx
			out.Probes = append(out.Probes, pr)
		}
	}
	return out
}
