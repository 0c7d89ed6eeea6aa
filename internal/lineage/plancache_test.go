package lineage

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
)

// shapeIndex returns an index of length n. Plans are cached per query
// shape, so indices of distinct lengths are distinct cache keys.
func shapeIndex(n int) value.Index { return make(value.Index, n) }

// compileN compiles the query binding P:Y at index lengths [0, n) through
// one evaluator; every length is a distinct cache key.
func compileN(t *testing.T, ip *IndexProj, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ip.Compile("P", "Y", shapeIndex(i), NewFocus("Q", "R")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedPlanCacheTenantIsolation proves two evaluators sharing one cache
// under different scopes never observe each other's plans: tenant B's first
// compilation of a shape tenant A already cached must be a miss, and the
// cache ends up holding both tenants' entries separately.
func TestSharedPlanCacheTenantIsolation(t *testing.T) {
	_, _, _, ipA := setup(t, fig3(), "r1", fig3Inputs())
	_, _, _, ipB := setup(t, fig3(), "r2", fig3Inputs())
	pc := NewSharedPlanCache(64)
	ipA.UsePlanCache(pc, "tenantA")
	ipB.UsePlanCache(pc, "tenantB")

	compileN(t, ipA, 1) // miss: first compilation anywhere
	compileN(t, ipA, 1) // hit: tenant A reuses its own plan
	compileN(t, ipB, 1) // must be a miss: same shape, different tenant

	if got := pc.Hits(); got != 1 {
		t.Errorf("hits = %d, want 1 (tenant B must not hit tenant A's plan)", got)
	}
	if got := pc.Misses(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := pc.Len(); got != 2 {
		t.Errorf("cache holds %d plans, want 2 (one per tenant)", got)
	}
}

// TestSharedPlanCacheCounterInvariants checks the accounting identities under
// a single-threaded workload: every Compile is exactly one hit or one miss,
// every miss inserts, and the size is inserts minus evictions.
func TestSharedPlanCacheCounterInvariants(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	pc := NewSharedPlanCache(64)
	ip.UsePlanCache(pc, "t")

	const distinct, rounds = 7, 3
	for r := 0; r < rounds; r++ {
		compileN(t, ip, distinct)
	}
	calls := int64(distinct * rounds)
	if pc.Hits()+pc.Misses() != calls {
		t.Errorf("hits(%d) + misses(%d) != compile calls(%d)", pc.Hits(), pc.Misses(), calls)
	}
	if pc.Misses() != distinct {
		t.Errorf("misses = %d, want %d (one per distinct shape)", pc.Misses(), distinct)
	}
	if got := int64(pc.Len()) + pc.Evictions(); got != pc.Misses() {
		t.Errorf("len(%d) + evictions(%d) != inserts(%d)", pc.Len(), pc.Evictions(), pc.Misses())
	}
}

// TestSharedPlanCacheConcurrentInvariants hammers one shared cache from many
// goroutines across two tenants (run with -race). The per-call identity and
// the size bound must hold regardless of interleaving; racing first
// compilations of one key may each count a miss, so misses is only bounded
// below by the distinct-key count.
func TestSharedPlanCacheConcurrentInvariants(t *testing.T) {
	_, _, _, ipA := setup(t, fig3(), "r1", fig3Inputs())
	_, _, _, ipB := setup(t, fig3(), "r2", fig3Inputs())
	pc := NewSharedPlanCache(256)
	ipA.UsePlanCache(pc, "tenantA")
	ipB.UsePlanCache(pc, "tenantB")

	const workers, perWorker, distinct = 8, 40, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := ipA
			if w%2 == 1 {
				ip = ipB
			}
			for i := 0; i < perWorker; i++ {
				if _, err := ip.Compile("P", "Y", shapeIndex(i%distinct), NewFocus("Q")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	calls := int64(workers * perWorker)
	if pc.Hits()+pc.Misses() != calls {
		t.Errorf("hits(%d) + misses(%d) != compile calls(%d)", pc.Hits(), pc.Misses(), calls)
	}
	if pc.Misses() < 2*distinct {
		t.Errorf("misses = %d, want >= %d (each tenant compiles %d distinct keys)", pc.Misses(), 2*distinct, distinct)
	}
	if got := pc.Len(); got != 2*distinct {
		t.Errorf("cache holds %d plans, want %d", got, 2*distinct)
	}
}

// TestSharedPlanCacheEvictionChurn runs many distinct shapes through a tiny
// cache: the size must respect the capacity, evictions must account for the
// overflow exactly, and recency must decide who survives.
func TestSharedPlanCacheEvictionChurn(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	const capacity, distinct = 4, 20
	pc := NewSharedPlanCache(capacity)
	ip.UsePlanCache(pc, "t")

	compileN(t, ip, distinct)
	if got := pc.Len(); got != capacity {
		t.Errorf("cache holds %d plans, want capacity %d", got, capacity)
	}
	if got := pc.Evictions(); got != distinct-capacity {
		t.Errorf("evictions = %d, want %d", got, distinct-capacity)
	}

	// The most recent `capacity` shapes survive; older ones were evicted.
	h0, m0 := pc.Hits(), pc.Misses()
	for i := distinct - capacity; i < distinct; i++ {
		if _, err := ip.Compile("P", "Y", shapeIndex(i), NewFocus("Q", "R")); err != nil {
			t.Fatal(err)
		}
	}
	if got := pc.Hits() - h0; got != capacity {
		t.Errorf("recent shapes: %d hits, want %d", got, capacity)
	}
	if _, err := ip.Compile("P", "Y", shapeIndex(0), NewFocus("Q", "R")); err != nil {
		t.Fatal(err)
	}
	if got := pc.Misses() - m0; got != 1 {
		t.Errorf("evicted shape: %d misses, want 1 (must recompile)", got)
	}
}

// TestPlanCacheTopologyGeneration is the regression test for the plan-cache
// key fix: the key now pins the store's topology generation, so an evaluator
// over a store reopened with a different shard ring cannot be served plans
// cached against the old ring — even under the same tenant scope. Before the
// fix both evaluators keyed only on the binding, and the n=4 evaluator's
// first compile hit the n=1 entry.
func TestPlanCacheTopologyGeneration(t *testing.T) {
	w := fig3()
	open := func(n int) *shard.ShardedStore {
		st, err := shard.OpenMemory(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	pc := NewSharedPlanCache(64)
	newIP := func(q store.LineageQuerier) *IndexProj {
		ip, err := NewIndexProj(q, w)
		if err != nil {
			t.Fatal(err)
		}
		ip.UsePlanCache(pc, "tenantA") // same tenant: the store was "reopened"
		return ip
	}

	ip1, ip4 := newIP(open(1)), newIP(open(4))
	if g1, g4 := ip1.TopologyGen(), ip4.TopologyGen(); g1 == g4 {
		t.Fatalf("1- and 4-shard stores report the same topology generation %q", g1)
	}

	compileN(t, ip1, 1)
	if pc.Misses() != 1 {
		t.Fatalf("first compile: misses = %d, want 1", pc.Misses())
	}
	compileN(t, ip4, 1) // the reopened-with-a-different-ring evaluator
	if got := pc.Hits(); got != 0 {
		t.Errorf("hits = %d, want 0: a 4-shard evaluator was served a plan cached under the 1-shard ring", got)
	}
	if got := pc.Misses(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}

	// Same topology generation, same scope: sharing works. A second 4-shard
	// evaluator (a true reopen with the identical ring) hits immediately.
	compileN(t, newIP(open(4)), 1)
	if got := pc.Hits(); got != 1 {
		t.Errorf("identical-ring reopen: hits = %d, want 1", got)
	}

	// Single (unsharded) stores share one constant generation.
	st, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if got := topologyGen(st); got != "single" {
		t.Errorf("single-store topology generation = %q, want %q", got, "single")
	}
}

// TestPrivatePlanCacheKeysTopology checks the fix also reaches the default
// per-evaluator cache path: keys include the generation (harmless constant
// prefix for a fixed store) and CacheSize still reports the private cache,
// one template per shape.
func TestPrivatePlanCacheKeysTopology(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	if ip.TopologyGen() != "single" {
		t.Fatalf("TopologyGen = %q, want single", ip.TopologyGen())
	}
	for i := 0; i < 3; i++ {
		compileN(t, ip, 2)
	}
	if got := ip.CacheSize(); got != 2 {
		t.Errorf("CacheSize = %d, want 2", got)
	}
}

// TestPlanCacheOneMissPerShape pins the shape key exactly: every index of
// one length shares one template, so 2 500 fresh indices cost one
// compilation, and only a new |q| or a new focus set costs another.
func TestPlanCacheOneMissPerShape(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	pc := NewSharedPlanCache(64)
	ip.UsePlanCache(pc, "t")
	focus := NewFocus("Q", "R")
	for i := 0; i < 2500; i++ {
		if _, err := ip.Compile("P", "Y", value.Ix(i/50, i%50), focus); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Misses() != 1 || pc.Hits() != 2499 {
		t.Fatalf("2500 indices of one shape: %d misses, %d hits; want 1, 2499", pc.Misses(), pc.Hits())
	}
	if _, err := ip.Compile("P", "Y", value.Ix(7), focus); err != nil {
		t.Fatal(err)
	}
	if pc.Misses() != 2 {
		t.Errorf("new |q|: misses = %d, want 2", pc.Misses())
	}
	if _, err := ip.Compile("P", "Y", value.Ix(7, 7), NewFocus("R", "Q", "P")); err != nil {
		t.Fatal(err)
	}
	if pc.Misses() != 3 || pc.Len() != 3 {
		t.Errorf("new focus: misses = %d, len = %d; want 3, 3", pc.Misses(), pc.Len())
	}
	// The fingerprint does not depend on the order a focus set was built in.
	if _, err := ip.Compile("P", "Y", value.Ix(1, 2), NewFocus("R", "Q")); err != nil {
		t.Fatal(err)
	}
	if pc.Misses() != 3 {
		t.Errorf("reordered focus: misses = %d, want 3", pc.Misses())
	}
}

// TestPlanCacheFocusCollisionNeverServed plants a template compiled for
// focus B under focus A's key — what a fingerprint collision would leave in
// the cache. A query with focus A must verify the template's focus set,
// compile its own plan uncached, and leave the planted one alone.
func TestPlanCacheFocusCollisionNeverServed(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	_, _, _, fresh := setup(t, fig3(), "r1", fig3Inputs())
	pc := NewSharedPlanCache(8)
	ip.UsePlanCache(pc, "t")
	focusA, focusB := NewFocus("Q"), NewFocus("R")
	idx := value.Ix(1, 0)

	planted, err := ip.compileTemplate("P", "Y", len(idx), focusB)
	if err != nil {
		t.Fatal(err)
	}
	key := planKey(ip.scope, ip.wf.Name, ip.topoGen, "P", "Y", len(idx), focusA)
	pc.Add(key, planted)

	for i := 0; i < 2; i++ {
		got, err := ip.Compile("P", "Y", idx, focusA)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Compile("P", "Y", idx, focusA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("focus A was answered with %v, want %v", got.Probes, want.Probes)
		}
		res, err := ip.Lineage("r1", "P", "Y", idx, focusA)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := fresh.Lineage("r1", "P", "Y", idx, focusA)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(wantRes) {
			t.Fatalf("Lineage under a collided key = %v, want %v", res, wantRes)
		}
	}
	if cached, ok := pc.Get(key); !ok || cached != planted || pc.Len() != 1 {
		t.Errorf("the planted template was replaced or joined (len %d)", pc.Len())
	}
}

// TestPublicExecutorsRefuseTemplates: a template taken out of a shared
// cache has no query index to resolve against, so the public executors
// return an error instead of running (or panicking on) it, and still run
// the concrete plan Compile returns for the same query.
func TestPublicExecutorsRefuseTemplates(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	pc := NewSharedPlanCache(8)
	ip.UsePlanCache(pc, "t")
	idx := value.Ix(1, 0)
	plan, err := ip.Compile("P", "Y", idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, ok := pc.Get(planKey(ip.scope, ip.wf.Name, ip.topoGen, "P", "Y", len(idx), nil))
	if !ok {
		t.Fatal("Compile cached no template")
	}
	if _, err := ip.Execute(tmpl, "r1"); !errors.Is(err, errTemplatePlan) {
		t.Errorf("Execute(template) = %v, want errTemplatePlan", err)
	}
	if _, err := ip.ExecuteMultiRun(context.Background(), tmpl, []string{"r1"}, MultiRunOptions{}); !errors.Is(err, errTemplatePlan) {
		t.Errorf("ExecuteMultiRun(template) = %v, want errTemplatePlan", err)
	}
	if _, err := ip.Execute(plan, "r1"); err != nil {
		t.Errorf("Execute(Compile's plan): %v", err)
	}
	if _, err := ip.ExecuteMultiRun(context.Background(), plan, []string{"r1"}, MultiRunOptions{}); err != nil {
		t.Errorf("ExecuteMultiRun(Compile's plan): %v", err)
	}
}
