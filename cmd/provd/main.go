// Command provd is the long-running multi-tenant provenance query service.
// It serves the lineage query API over HTTP, one isolated store namespace
// per tenant, with per-tenant rate limits, global admission control and a
// graceful drain on SIGTERM (stop admitting, finish in-flight queries,
// checkpoint and close every store).
//
// Usage:
//
//	provd -addr 127.0.0.1:7468 -store 'file:/var/prov/{tenant}.db'
//	provd -addr :7468 -store 'shard:/var/prov/{tenant}?n=4&r=2' -tenant-rate 100
//
// Endpoints:
//
//	GET /v1/query?tenant=T&run=R&binding=proc:port[i,j]&focus=P1,P2
//	GET /v1/query?tenant=T&runs=R1,R2&parallel=4&binding=workflow:out[]
//	GET /v1/query?tenant=T&runs=R1,R2&partial=1&...  degraded answers when a shard is down
//	GET /v1/runs?tenant=T
//	GET /readyz         200 while serving, 503 once draining (readiness)
//	GET /healthz        always 200 (liveness); JSON with per-shard replica and breaker state
//	GET /metrics        engine + server counters and histograms (JSON)
//	GET /debug/pprof/*  standard profiling endpoints
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "provd:", err)
		}
		os.Exit(1)
	}
}

// run is the whole daemon behind a testable seam: it listens, serves until
// the context is cancelled (SIGINT/SIGTERM), drains and exits. Output goes
// to the supplied writers; the bound address is announced on stdout as
// "provd listening on <addr>" so tests and scripts can scrape it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("provd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7468", "listen address (host:port, port 0 picks one)")
	storeTmpl := fs.String("store", "file:prov-{tenant}.db",
		"store DSN template with a {tenant} placeholder (file:, durable:, memory:, shard:<dir>?n=N&r=R)")
	l := fs.Int("l", 10, "testbed chain length for the bundled testbed workflow")
	wfJSON := fs.String("wfjson", "", "comma-separated extra workflow definition JSON files")
	maxTenants := fs.Int("max-tenants", 8, "open tenant store handles kept before LRU eviction")
	maxInflight := fs.Int("max-inflight", 64, "global bound on concurrently executing queries")
	queueWait := fs.Duration("queue-wait", time.Second, "longest a request waits for an admission slot")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant request rate limit in requests/sec (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 16, "per-tenant rate-limit burst")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "hard cap on client-requested deadlines")
	drainWait := fs.Duration("drain-wait", 30*time.Second, "how long shutdown waits for the listener to close")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(server.Config{
		StoreTemplate:  *storeTmpl,
		TestbedL:       *l,
		WorkflowJSON:   *wfJSON,
		MaxTenants:     *maxTenants,
		MaxInflight:    *maxInflight,
		QueueWait:      *queueWait,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provd listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Drain()
		return err
	case <-ctx.Done():
	}

	// Drain while the listener is still open: in-flight requests complete,
	// new ones get an explicit 503 instead of a connection refused. Only
	// then close the listener.
	fmt.Fprintln(stdout, "provd draining")
	drainErr := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	fmt.Fprintln(stdout, "provd stopped")
	return drainErr
}
