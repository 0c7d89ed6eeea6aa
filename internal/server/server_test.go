package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// seedTenant materialises a tenant's file-backed store under dir by running
// the bundled testbed workflow n times, exactly as `provq run` would, and
// returns the run IDs.
func seedTenant(t *testing.T, dir, tenant string, l, d, n int) []string {
	t.Helper()
	path := filepath.Join(dir, tenant+".db")
	sys, err := core.NewSystem(core.WithStoreDSN("file:" + path))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	gen.RegisterTestbed(sys.Registry())
	for _, w := range gen.BundledWorkflows(l) {
		if err := sys.RegisterWorkflow(w); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		res, err := sys.Run(fmt.Sprintf("testbed_l%d", l), gen.TestbedInputs(d))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.RunID)
	}
	if err := sys.Save(path); err != nil {
		t.Fatal(err)
	}
	return ids
}

// newTestServer builds a Server over a file template in dir and an
// httptest front end. Callers own Drain; Close is registered for cleanup.
func newTestServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StoreTemplate = "file:" + filepath.Join(dir, "{tenant}.db")
	if cfg.TestbedL == 0 {
		cfg.TestbedL = 4
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// get issues a GET and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// queryURL renders a /v1/query URL for the standard testbed probe.
func queryURL(base, tenant, runParam, runValue string, extra url.Values) string {
	params := url.Values{}
	params.Set("tenant", tenant)
	params.Set(runParam, runValue)
	params.Set("binding", "2TO1_FINAL:product[0,0]")
	params.Set("focus", "LISTGEN_1")
	for k, vs := range extra {
		for _, v := range vs {
			params.Add(k, v)
		}
	}
	return base + "/v1/query?" + params.Encode()
}

// waitGoroutines polls until the goroutine count returns to the baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeQueryTenantIsolation: a run stored under tenant t0 answers for
// t0 and is invisible (404) from tenant t1 — namespaces never share data
// even though both tenants share the admission machinery.
func TestServeQueryTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 3, 1)
	_, ts := newTestServer(t, dir, Config{})

	status, body := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil))
	if status != http.StatusOK {
		t.Fatalf("t0 query: status %d, body %s", status, body)
	}
	if !strings.HasPrefix(body, "back(<2TO1_FINAL:product[0,0]>") {
		t.Errorf("unexpected answer header:\n%s", body)
	}
	if !strings.Contains(body, "LISTGEN_1") {
		t.Errorf("focused answer has no LISTGEN_1 binding:\n%s", body)
	}

	// Same run ID through a different namespace: unknown run.
	status, body = get(t, queryURL(ts.URL, "t1", "run", ids[0], nil))
	if status != http.StatusNotFound {
		t.Errorf("t1 sees t0's run: status %d, body %s", status, body)
	}

	// Both methods agree through the HTTP surface (headers differ by name).
	_, ni := get(t, queryURL(ts.URL, "t0", "run", ids[0], url.Values{"method": {"naive"}}))
	_, ip := get(t, queryURL(ts.URL, "t0", "run", ids[0], url.Values{"method": {"indexproj"}}))
	trim := func(s string) string { _, rest, _ := strings.Cut(s, "\n"); return rest }
	if trim(ni) != trim(ip) {
		t.Errorf("NI and INDEXPROJ answers disagree over HTTP:\n%s\nvs\n%s", ni, ip)
	}
}

// TestServeBadRequests pins the 400 surface: bad tenant names (the DSN
// splice guard), missing parameters, unknown directions and methods.
// TestTenantsShareNoPlanTable: every tenant's evaluators keep their own
// template table, so tenant t1's first query of a shape t0 already compiled
// is a miss, not a hit on t0's template.
func TestTenantsShareNoPlanTable(t *testing.T) {
	dir := t.TempDir()
	ids0 := seedTenant(t, dir, "t0", 4, 3, 1)
	ids1 := seedTenant(t, dir, "t1", 4, 3, 1)
	_, ts := newTestServer(t, dir, Config{})
	hits, misses := obs.C("lineage.indexproj.plan_cache_hits"), obs.C("lineage.indexproj.plan_cache_misses")
	query := func(tenant, run string) (dHits, dMisses int64) {
		t.Helper()
		h0, m0 := hits.Load(), misses.Load()
		if status, body := get(t, queryURL(ts.URL, tenant, "run", run, nil)); status != http.StatusOK {
			t.Fatalf("%s query: status %d, body %s", tenant, status, body)
		}
		return hits.Load() - h0, misses.Load() - m0
	}
	if h, m := query("t0", ids0[0]); h != 0 || m != 1 {
		t.Errorf("t0 first query: %d hits, %d misses; want 0, 1", h, m)
	}
	if h, m := query("t0", ids0[0]); h != 1 || m != 0 {
		t.Errorf("t0 second query: %d hits, %d misses; want 1, 0", h, m)
	}
	if h, m := query("t1", ids1[0]); h != 0 || m != 1 {
		t.Errorf("t1 first query of t0's shape: %d hits, %d misses; want 0, 1", h, m)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{})
	for _, q := range []string{
		"tenant=../../etc&run=r1&binding=workflow:out[]", // path metachars
		"tenant=&run=r1&binding=workflow:out[]",          // empty tenant
		"tenant=t0&binding=workflow:out[]",               // no run
		"tenant=t0&run=r1",                               // no binding
		"tenant=t0&run=r1&binding=no-colon",
		"tenant=t0&run=r1&binding=workflow:out[]&direction=sideways",
		"tenant=t0&run=r1&binding=workflow:out[]&method=bogus",
		"tenant=t0&runs=r1,r2&binding=workflow:out[]&direction=forward",
		"tenant=t0&run=r1&binding=workflow:out[]&format=xml",
		"tenant=t0&run=r1&binding=workflow:out[]&timeout=fast",
		"tenant=t0&run=r1&binding=workflow:out[]&partial=1",      // partial needs runs=
		"tenant=t0&runs=r1,r2&binding=workflow:out[]&partial=so", // bad bool
	} {
		if status, body := get(t, ts.URL+"/v1/query?"+q); status != http.StatusBadRequest {
			t.Errorf("query?%s: status %d (want 400), body %q", q, status, body)
		}
	}
	if status, _ := get(t, ts.URL+"/v1/runs?tenant=has/slash"); status != http.StatusBadRequest {
		t.Errorf("runs with bad tenant: status %d, want 400", status)
	}
}

// TestServeRateLimit: a burst over the tenant's token bucket sheds with 429
// and the rejection is observable in server.rejected.ratelimit.
func TestServeRateLimit(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 1)
	_, ts := newTestServer(t, dir, Config{TenantRate: 1, TenantBurst: 2})

	rejBefore, rlBefore := srvRejected.Load(), srvRejRatelimit.Load()
	var ok200, ok429 int
	for i := 0; i < 6; i++ {
		switch status, body := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil)); status {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			ok429++
		default:
			t.Fatalf("unexpected status %d: %s", status, body)
		}
	}
	if ok200 == 0 || ok429 == 0 {
		t.Fatalf("burst of 6 at burst=2: got %d OK, %d rate-limited — want both > 0", ok200, ok429)
	}
	if d := srvRejRatelimit.Load() - rlBefore; d != int64(ok429) {
		t.Errorf("server.rejected.ratelimit advanced by %d, want %d", d, ok429)
	}
	if d := srvRejected.Load() - rejBefore; d != int64(ok429) {
		t.Errorf("server.rejected advanced by %d, want %d", d, ok429)
	}
}

// TestServeAdmissionReject: with one execution slot occupied and a tiny
// queue-wait budget, the next query sheds with 503 and bumps
// server.rejected.admission.
func TestServeAdmissionReject(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 1)
	srv, ts := newTestServer(t, dir, Config{MaxInflight: 1, QueueWait: 20 * time.Millisecond})

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	testHookExecute = func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	defer func() { testHookExecute = nil }()

	admBefore := srvRejAdmission.Load()
	done := make(chan int, 1)
	go func() {
		status, _ := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil))
		done <- status
	}()
	<-entered // slot holder is mid-execution

	if status, body := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil)); status != http.StatusServiceUnavailable {
		t.Errorf("second query with full slot: status %d, body %s", status, body)
	}
	if d := srvRejAdmission.Load() - admBefore; d != 1 {
		t.Errorf("server.rejected.admission advanced by %d, want 1", d)
	}
	close(release)
	if status := <-done; status != http.StatusOK {
		t.Errorf("slot holder finished with %d, want 200", status)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDrainMidFlight is the drain contract end to end: with a request
// held mid-execution, Drain blocks, new requests and health checks get 503,
// the in-flight request still completes with 200, and after the barrier
// falls every tenant store is checkpointed shut and no goroutines linger.
func TestServeDrainMidFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 1)
	srv, ts := newTestServer(t, dir, Config{})

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	testHookExecute = func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	defer func() { testHookExecute = nil }()

	drainingBefore := srvRejDraining.Load()
	inFlight := make(chan int, 1)
	go func() {
		status, _ := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil))
		inFlight <- status
	}()
	<-entered

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain() }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the old request is still being served.
	if status, body := get(t, queryURL(ts.URL, "t0", "run", ids[0], nil)); status != http.StatusServiceUnavailable {
		t.Errorf("query during drain: status %d, body %s", status, body)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", status)
	}
	// Liveness stays 200 during drain; the body says draining.
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK || !strings.Contains(body, `"draining"`) {
		t.Errorf("healthz during drain: status %d, body %q, want 200 draining", status, body)
	}
	if d := srvRejDraining.Load() - drainingBefore; d < 1 {
		t.Errorf("server.rejected.draining advanced by %d, want >= 1", d)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain completed with request still in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if status := <-inFlight; status != http.StatusOK {
		t.Errorf("in-flight request dropped by drain: status %d, want 200", status)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.OpenTenants(); n != 0 {
		t.Errorf("%d tenant stores still open after drain", n)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestServeConcurrentTenants hammers the full stack under the race
// detector: 4 tenants × 4 clients × 8 mixed queries with a tenant budget of
// 2, so handles are evicted and reopened while other requests hold them.
// Every response must be a clean 200, LRU eviction must actually occur, and
// drain must leave nothing behind.
func TestServeConcurrentTenants(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	tenants := []string{"t0", "t1", "t2", "t3"}
	runIDs := make(map[string][]string, len(tenants))
	for _, tn := range tenants {
		runIDs[tn] = seedTenant(t, dir, tn, 4, 2, 2)
	}
	srv, ts := newTestServer(t, dir, Config{MaxTenants: 2, MaxInflight: 8})
	client := ts.Client()

	evictedBefore := srvTenantsEvicted.Load()
	var wg sync.WaitGroup
	errc := make(chan error, len(tenants)*4)
	for _, tn := range tenants {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(tn string, c int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					var u string
					switch i % 3 {
					case 0:
						u = queryURL(ts.URL, tn, "run", runIDs[tn][0], url.Values{"method": {"naive"}})
					case 1:
						u = queryURL(ts.URL, tn, "run", runIDs[tn][1], nil)
					default:
						u = queryURL(ts.URL, tn, "runs", strings.Join(runIDs[tn], ","),
							url.Values{"parallel": {"2"}})
					}
					resp, err := client.Get(u)
					if err != nil {
						errc <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("tenant %s client %d: status %d: %s", tn, c, resp.StatusCode, body)
						return
					}
					if !strings.Contains(string(body), "LISTGEN_1") {
						errc <- fmt.Errorf("tenant %s: answer missing LISTGEN_1:\n%s", tn, body)
						return
					}
				}
			}(tn, c)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if d := srvTenantsEvicted.Load() - evictedBefore; d < 1 {
		t.Errorf("4 tenants under a budget of 2 evicted %d handles, want >= 1", d)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.OpenTenants(); n != 0 {
		t.Errorf("%d tenant stores still open after drain", n)
	}
	ts.Close()
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestServeRunsAndHealth covers the non-query endpoints: runs listing in
// provq's format, the empty-store message, JSON format, and healthz.
func TestServeRunsAndHealth(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 1)
	srv, ts := newTestServer(t, dir, Config{})

	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK || body != "ok\n" {
		t.Errorf("readyz: %d %q", status, body)
	}
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz: %d %q", status, body)
	}
	status, body := get(t, ts.URL+"/v1/runs?tenant=t0")
	if status != http.StatusOK || !strings.Contains(body, ids[0]) {
		t.Errorf("runs listing: %d\n%s", status, body)
	}
	if status, body = get(t, ts.URL+"/v1/runs?tenant=empty"); status != http.StatusOK || body != "no runs stored\n" {
		t.Errorf("empty tenant runs: %d %q", status, body)
	}
	status, body = get(t, ts.URL+"/v1/runs?tenant=t0&format=json")
	if status != http.StatusOK || !strings.Contains(body, `"runs":["`+ids[0]+`"]`) {
		t.Errorf("json runs listing: %d\n%s", status, body)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	// Drained servers refuse the whole API, idempotently.
	if status, _ = get(t, ts.URL+"/v1/runs?tenant=t0"); status != http.StatusServiceUnavailable {
		t.Errorf("runs after drain: status %d, want 503", status)
	}
	if err := srv.Drain(); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestServePartialMultiRun: partial=1 over a healthy store answers exactly
// like the non-partial query and carries no degraded marker in either
// rendering — degradation only surfaces when a replicated shard is down,
// which the chaos tests in internal/shard exercise at the lineage layer.
func TestServePartialMultiRun(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 2)
	_, ts := newTestServer(t, dir, Config{})

	runs := strings.Join(ids, ",")
	status, full := get(t, queryURL(ts.URL, "t0", "runs", runs, nil))
	if status != http.StatusOK {
		t.Fatalf("multi-run query: %d %s", status, full)
	}
	status, partial := get(t, queryURL(ts.URL, "t0", "runs", runs, url.Values{"partial": {"1"}}))
	if status != http.StatusOK {
		t.Fatalf("partial multi-run query: %d %s", status, partial)
	}
	if partial != full {
		t.Errorf("partial answer over a healthy store diverges:\n%s\nvs\n%s", partial, full)
	}
	if strings.Contains(partial, "DEGRADED") {
		t.Errorf("healthy partial answer carries a degraded marker:\n%s", partial)
	}
	status, body := get(t, queryURL(ts.URL, "t0", "runs", runs, url.Values{"partial": {"1"}, "format": {"json"}}))
	if status != http.StatusOK {
		t.Fatalf("partial json query: %d %s", status, body)
	}
	if strings.Contains(body, `"degraded"`) {
		t.Errorf("healthy json answer sets degraded fields:\n%s", body)
	}
}

// TestServeJSONFormat: format=json returns a parseable answer whose binding
// count matches the text rendering.
func TestServeJSONFormat(t *testing.T) {
	dir := t.TempDir()
	ids := seedTenant(t, dir, "t0", 4, 2, 1)
	_, ts := newTestServer(t, dir, Config{})

	status, body := get(t, queryURL(ts.URL, "t0", "run", ids[0], url.Values{"format": {"json"}}))
	if status != http.StatusOK {
		t.Fatalf("json query: %d %s", status, body)
	}
	for _, want := range []string{`"direction":"back"`, `"binding":"2TO1_FINAL:product[0,0]"`, `"method":"indexproj"`, `"entries":[`} {
		if !strings.Contains(body, want) {
			t.Errorf("json answer missing %s:\n%s", want, body)
		}
	}
}
