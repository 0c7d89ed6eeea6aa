package server

import (
	"container/list"
	"fmt"
	"regexp"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// tenantName pins the accepted namespace alphabet. Tenant names are spliced
// into store DSNs (paths), so the alphabet excludes every path
// metacharacter: no separators, no dots, no leading dash.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// tenant is one open namespace: a full core.System (store handle + workflow
// registry + evaluators) plus the bookkeeping the LRU needs. A tenant's
// evaluators, and so its template tables, are its own.
type tenant struct {
	name    string
	sys     *core.System
	refs    int           // in-flight requests holding the handle
	el      *list.Element // position in the manager's LRU list
	evicted bool          // dropped from the table; close when refs drains
}

// tenantManager owns the per-tenant namespaces: store handles are opened
// lazily on first use and evicted least-recently-used beyond the open-handle
// budget. Eviction never interrupts a request — a tenant with in-flight
// references is skipped (the table may transiently exceed the budget) and an
// evicted tenant's store closes when its last reference releases.
//
// Rate-limiter buckets live in a separate table keyed by name that survives
// eviction: a tenant cannot reset its own bucket by flooding hard enough to
// get its store handle evicted.
type tenantManager struct {
	open  func(name string) (*core.System, error)
	max   int
	rate  float64
	burst int

	mu       sync.Mutex
	tenants  map[string]*tenant
	order    *list.List // front = most recently used
	limiters map[string]*tokenBucket
	closed   bool
}

func newTenantManager(open func(string) (*core.System, error), max int, rate float64, burst int) *tenantManager {
	if max < 1 {
		max = 1
	}
	return &tenantManager{
		open:     open,
		max:      max,
		rate:     rate,
		burst:    burst,
		tenants:  make(map[string]*tenant),
		order:    list.New(),
		limiters: make(map[string]*tokenBucket),
	}
}

// limiter returns the tenant's rate-limit bucket, creating it on first use.
func (m *tenantManager) limiter(name string) *tokenBucket {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.limiters[name]
	if !ok {
		b = newTokenBucket(m.rate, m.burst)
		m.limiters[name] = b
	}
	return b
}

// acquire returns the named tenant's handle, opening it if necessary, and a
// release function the caller must invoke when the request finishes. The
// store open happens under the table lock: opens are local (file/memory)
// and serializing them keeps double-open races impossible.
func (m *tenantManager) acquire(name string) (*tenant, func(), error) {
	if !tenantName.MatchString(name) {
		return nil, nil, fmt.Errorf("server: invalid tenant name %q", name)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("server: draining")
	}
	t, ok := m.tenants[name]
	if ok {
		t.refs++
		m.order.MoveToFront(t.el)
		m.mu.Unlock()
		return t, func() { m.release(t) }, nil
	}
	sys, err := m.open(name)
	if err != nil {
		m.mu.Unlock()
		return nil, nil, err
	}
	srvTenantsOpened.Add(1)
	t = &tenant{name: name, sys: sys, refs: 1}
	t.el = m.order.PushFront(t)
	m.tenants[name] = t
	victims := m.evictLocked()
	m.mu.Unlock()
	for _, v := range victims {
		closeTenant(v)
	}
	return t, func() { m.release(t) }, nil
}

// evictLocked drops least-recently-used idle tenants until the table fits
// the budget, returning the victims for the caller to close outside the
// lock. Tenants with in-flight references are left alone.
func (m *tenantManager) evictLocked() []*tenant {
	var victims []*tenant
	over := len(m.tenants) - m.max
	for el := m.order.Back(); el != nil && over > 0; {
		prev := el.Prev()
		t := el.Value.(*tenant)
		if t.refs == 0 {
			m.order.Remove(el)
			delete(m.tenants, t.name)
			t.evicted = true
			srvTenantsEvicted.Add(1)
			victims = append(victims, t)
			over--
		}
		el = prev
	}
	return victims
}

func (m *tenantManager) release(t *tenant) {
	m.mu.Lock()
	t.refs--
	closeNow := t.evicted && t.refs == 0
	m.mu.Unlock()
	if closeNow {
		closeTenant(t)
	}
}

// openCount returns the number of open tenant handles.
func (m *tenantManager) openCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

// healthSnapshot returns the per-replica health rows of every open tenant
// whose store reports them (store.HealthReporter). Tenants on single-engine
// stores are omitted — liveness is all there is to say about them.
func (m *tenantManager) healthSnapshot() map[string][]store.ReplicaHealth {
	m.mu.Lock()
	type probe struct {
		t  *tenant
		hr store.HealthReporter
	}
	probes := make([]probe, 0, len(m.tenants))
	for _, t := range m.tenants {
		if hr, ok := t.sys.Store().(store.HealthReporter); ok {
			t.refs++ // hold the handle so eviction cannot close it mid-report
			probes = append(probes, probe{t: t, hr: hr})
		}
	}
	m.mu.Unlock()
	if len(probes) == 0 {
		return nil
	}
	out := make(map[string][]store.ReplicaHealth, len(probes))
	for _, p := range probes {
		out[p.t.name] = p.hr.ReplicaHealth()
		m.release(p.t)
	}
	return out
}

// closeAll checkpoints and closes every open tenant and refuses further
// acquires. The server calls it after the drain barrier, so no tenant has
// in-flight references.
func (m *tenantManager) closeAll() error {
	m.mu.Lock()
	m.closed = true
	victims := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		t.evicted = true
		victims = append(victims, t)
	}
	m.tenants = make(map[string]*tenant)
	m.order.Init()
	m.mu.Unlock()
	var first error
	for _, t := range victims {
		if err := closeTenant(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeTenant checkpoints a tenant's store when the backend supports it
// (bounding the replay work of the next open) and closes it.
func closeTenant(t *tenant) error {
	if cp, ok := t.sys.Store().(store.Checkpointer); ok {
		if err := cp.Checkpoint(); err != nil {
			t.sys.Close()
			return err
		}
	}
	return t.sys.Close()
}
