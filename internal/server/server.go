// Package server implements provd's multi-tenant provenance query service:
// an HTTP/JSON front end over the collection-provenance store and the
// parallel multi-run lineage executor.
//
// Each tenant is an isolated namespace — its own store handle (opened
// lazily from a DSN template, LRU-evicted beyond a budget), its own
// evaluators with their template tables, and its own token-bucket rate
// limit — while all tenants share one global admission semaphore bounding
// in-flight query work.
//
// Shutdown is a drain: the server stops admitting, lets in-flight requests
// finish, checkpoints every open store, and closes. The ops surface
// (/metrics and /debug/pprof/*) is mounted on the same mux via obs.Mount.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// Config sizes the server. The zero value of every field gets a sensible
// default except StoreTemplate, which is required.
type Config struct {
	// StoreTemplate is the store DSN with a {tenant} placeholder, e.g.
	// "file:/var/prov/{tenant}.db", "shard:/var/prov/{tenant}?n=4" or
	// "memory:{tenant}". Every tenant opens its own substituted DSN.
	StoreTemplate string

	// TestbedL is the chain length used when registering the bundled
	// testbed workflow (mirrors provq's -l flag).
	TestbedL int

	// WorkflowJSON lists extra workflow definition files (comma-separated)
	// registered in every tenant's system, like provq's -wfjson.
	WorkflowJSON string

	MaxTenants  int           // open store handles kept before LRU eviction (default 8)
	MaxInflight int           // global bound on concurrently executing queries (default 64)
	QueueWait   time.Duration // longest a request waits for an admission slot (default 1s)

	TenantRate  float64 // per-tenant request rate, tokens/sec (0 = unlimited)
	TenantBurst int     // per-tenant burst size (default 1 when rate limited)

	DefaultTimeout time.Duration // per-request deadline when none is given (default 30s)
	MaxTimeout     time.Duration // hard cap on client-requested deadlines (default 2m)
}

func (c *Config) fillDefaults() error {
	if !strings.Contains(c.StoreTemplate, "{tenant}") {
		return fmt.Errorf("server: store template %q has no {tenant} placeholder", c.StoreTemplate)
	}
	if c.TestbedL <= 0 {
		c.TestbedL = 10
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	return nil
}

// Server is the provenance query service. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg     Config
	tenants *tenantManager
	adm     *admission
	mux     *http.ServeMux

	// Drain protocol: handlers hold drainMu.RLock for their whole life and
	// re-check draining after acquiring it; Drain sets the flag, then takes
	// the write lock as a barrier that falls only when every in-flight
	// request has finished. The flag is checked before RLock too, so new
	// requests fail fast with 503 instead of queuing behind the barrier.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight atomic.Int64
	drained  sync.Once
	drainErr error
}

// New builds a server from cfg. No listener is started; mount Handler on an
// http.Server (or httptest.Server) owned by the caller.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.MaxInflight, cfg.QueueWait),
	}
	s.tenants = newTenantManager(s.openTenant, cfg.MaxTenants, cfg.TenantRate, cfg.TenantBurst)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/runs", s.handleRuns)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	obs.Mount(s.mux, obs.Default)
	return s, nil
}

// Handler returns the server's HTTP surface: /v1/query, /v1/runs,
// /v1/ingest, /healthz, /readyz, /metrics and /debug/pprof/*.
func (s *Server) Handler() http.Handler { return s.mux }

// OpenTenants reports how many tenant store handles are currently open.
func (s *Server) OpenTenants() int { return s.tenants.openCount() }

// openTenant builds a tenant's core.System: the tenant's substituted store
// DSN, the bundled workflow registry (same set provq registers), any extra
// JSON-defined workflows.
func (s *Server) openTenant(name string) (*core.System, error) {
	dsn := strings.ReplaceAll(s.cfg.StoreTemplate, "{tenant}", name)
	sys, err := core.NewSystem(core.WithStoreDSN(dsn))
	if err != nil {
		return nil, err
	}
	reg := sys.Registry()
	gen.RegisterTestbed(reg)
	gen.RegisterGK(reg, gen.DefaultKEGG())
	gen.RegisterPD(reg, gen.DefaultPubMed())
	for _, w := range gen.BundledWorkflows(s.cfg.TestbedL) {
		if err := sys.RegisterWorkflow(w); err != nil {
			sys.Close()
			return nil, err
		}
	}
	for _, path := range strings.Split(s.cfg.WorkflowJSON, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			sys.Close()
			return nil, err
		}
		var w workflow.Workflow
		if err := json.Unmarshal(data, &w); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := sys.RegisterWorkflow(&w); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return sys, nil
}

// begin registers an in-flight request with the drain barrier. It returns
// ok=false when the server is draining; otherwise the caller must invoke the
// returned func when the request finishes.
func (s *Server) begin() (func(), bool) {
	if s.draining.Load() {
		return nil, false
	}
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		return nil, false
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		s.drainMu.RUnlock()
	}, true
}

// Drain performs the graceful shutdown: stop admitting new requests, wait
// for every in-flight request to complete, then checkpoint and close every
// tenant store. Idempotent — later calls return the first drain's result.
// The number of requests that were in flight when the drain began is
// recorded in server.drained.
func (s *Server) Drain() error {
	s.drained.Do(func() {
		s.draining.Store(true)
		srvDrained.Add(s.inflight.Load())
		s.drainMu.Lock() // barrier: falls when all in-flight requests end
		s.drainMu.Unlock()
		s.drainErr = s.tenants.closeAll()
	})
	return s.drainErr
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
