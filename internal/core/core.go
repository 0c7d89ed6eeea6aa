// Package core is the top-level facade of the library: a System couples a
// workflow registry, the execution engine, a relational provenance store,
// and the lineage query algorithms behind one small API. Examples, CLIs and
// the benchmark harness all drive the reproduction through this package.
//
//	sys, _ := core.NewSystem()
//	defer sys.Close()
//	gen.RegisterTestbed(sys.Registry())
//	sys.RegisterWorkflow(gen.Testbed(10))
//	run, _ := sys.Run("testbed_l10", gen.TestbedInputs(5))
//	res, _ := sys.Lineage(core.IndexProj, run.RunID,
//	    gen.FinalName, "product", value.Ix(1, 2), lineage.NewFocus(gen.ListGenName))
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/lineage"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// Method selects a lineage algorithm.
type Method uint8

const (
	// IndexProj is the paper's intensional algorithm (Alg. 2): it traverses
	// the workflow specification graph and touches the trace only at focus
	// processors. The default.
	IndexProj Method = iota
	// Naive is the NI baseline: an extensional traversal of the stored
	// provenance graph.
	Naive
)

func (m Method) String() string {
	switch m {
	case IndexProj:
		return "indexproj"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// ParseMethod maps a method name to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "indexproj", "ip":
		return IndexProj, nil
	case "naive", "ni":
		return Naive, nil
	default:
		return 0, fmt.Errorf("core: unknown lineage method %q (want indexproj or naive)", s)
	}
}

// System is a provenance-enabled workflow system instance.
type System struct {
	reg *engine.Registry
	eng *engine.Engine
	st  store.Backend

	mu        sync.Mutex
	workflows map[string]*workflow.Workflow
	ips       map[string]*lineage.IndexProj
	runWf     map[string]string // run ID -> workflow name
	runSeq    int
}

// Option configures a System.
type Option func(*config)

type config struct {
	dsn        string
	concurrent bool
}

// WithStoreDSN directs provenance to the given DSN — a sqlike DSN
// ("memory:<name>", "file:<path>", "durable:<dir>") or a sharded store
// ("shard:<dir>?n=N"); the default is a fresh in-memory store.
func WithStoreDSN(dsn string) Option { return func(c *config) { c.dsn = dsn } }

// WithConcurrentEngine executes independent processors in parallel.
func WithConcurrentEngine() Option { return func(c *config) { c.concurrent = true } }

// NewSystem creates a System with an empty processor registry.
func NewSystem(opts ...Option) (*System, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	var st store.Backend
	var err error
	switch {
	case cfg.dsn == "":
		st, err = store.OpenMemory()
	case shard.IsShardDSN(cfg.dsn):
		st, err = shard.Open(cfg.dsn)
	default:
		st, err = store.Open(cfg.dsn)
	}
	if err != nil {
		return nil, err
	}
	reg := engine.NewRegistry()
	var engOpts []engine.Option
	if cfg.concurrent {
		engOpts = append(engOpts, engine.Concurrent())
	}
	s := &System{
		reg:       reg,
		eng:       engine.New(reg, engOpts...),
		st:        st,
		workflows: make(map[string]*workflow.Workflow),
		ips:       make(map[string]*lineage.IndexProj),
		runWf:     make(map[string]string),
	}
	// Adopt any runs already present (a store reopened from a file).
	runs, err := st.ListRuns()
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, r := range runs {
		s.runWf[r.RunID] = r.Workflow
	}
	return s, nil
}

// Close releases the provenance store.
func (s *System) Close() error { return s.st.Close() }

// Registry exposes the processor-type registry for behaviour registration.
func (s *System) Registry() *engine.Registry { return s.reg }

// Store exposes the underlying provenance store (a single *store.Store or a
// sharded shard.ShardedStore, behind the common Backend surface).
func (s *System) Store() store.Backend { return s.st }

// RegisterWorkflow validates and registers a workflow definition, preparing
// the INDEXPROJ evaluator (Alg. 1 runs here, once per definition).
func (s *System) RegisterWorkflow(w *workflow.Workflow) error {
	ip, err := lineage.NewIndexProj(s.st, w)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.workflows[w.Name]; ok {
		return fmt.Errorf("core: workflow %q already registered", w.Name)
	}
	s.workflows[w.Name] = w
	s.ips[w.Name] = ip
	return nil
}

// Workflow returns a registered workflow definition.
func (s *System) Workflow(name string) (*workflow.Workflow, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workflows[name]
	return w, ok
}

// Workflows returns a snapshot of the registered workflow definitions keyed
// by name — the spec map streaming ingest validates feeds against.
func (s *System) Workflows() map[string]*workflow.Workflow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*workflow.Workflow, len(s.workflows))
	for n, w := range s.workflows {
		out[n] = w
	}
	return out
}

// TailIngest streams a live event feed into the provenance store and, when
// the session ends, adopts the newly stored runs into the run-to-workflow
// map so they are immediately queryable. The store backend must support
// streaming ingest (both *store.Store and shard.ShardedStore do).
func (s *System) TailIngest(ctx context.Context, events <-chan trace.Event, opt store.TailOptions) (store.TailStats, error) {
	ti, ok := s.st.(store.TailIngester)
	if !ok {
		return store.TailStats{}, fmt.Errorf("core: store %T does not support streaming ingest", s.st)
	}
	stats, err := ti.TailIngest(ctx, events, opt)
	if aerr := s.adoptRuns(); aerr != nil && err == nil {
		err = aerr
	}
	return stats, err
}

// adoptRuns refreshes the run-to-workflow map from the store (runs can
// appear outside Run — streaming ingest, bulk loads after open).
func (s *System) adoptRuns() error {
	runs, err := s.st.ListRuns()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range runs {
		s.runWf[r.RunID] = r.Workflow
	}
	return nil
}

// RunResult reports one workflow execution.
type RunResult struct {
	RunID    string
	Outputs  map[string]value.Value
	Workflow string
}

// Run executes a registered workflow on the given inputs, persists its
// provenance trace under a fresh run ID, and returns the outputs.
func (s *System) Run(workflowName string, inputs map[string]value.Value) (*RunResult, error) {
	s.mu.Lock()
	w, ok := s.workflows[workflowName]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: workflow %q not registered", workflowName)
	}
	// Skip over run IDs already present (e.g. in a reopened store).
	var runID string
	for {
		s.runSeq++
		runID = fmt.Sprintf("%s-%04d", workflowName, s.runSeq)
		if _, taken := s.runWf[runID]; !taken {
			break
		}
	}
	s.mu.Unlock()

	writer, err := s.st.NewRunWriter(context.Background(), runID, workflowName, 0)
	if err != nil {
		return nil, err
	}
	outs, err := s.eng.Run(w, inputs, writer)
	if err != nil {
		writer.Close()
		return nil, fmt.Errorf("core: run %s: %w", runID, err)
	}
	// The writer buffers: the run is stored only once Close has flushed it.
	if err := writer.Close(); err != nil {
		return nil, fmt.Errorf("core: run %s: %w", runID, err)
	}
	s.mu.Lock()
	s.runWf[runID] = workflowName
	s.mu.Unlock()
	return &RunResult{RunID: runID, Outputs: outs, Workflow: workflowName}, nil
}

// Runs returns the stored run IDs of a workflow, oldest first.
func (s *System) Runs(workflowName string) ([]string, error) {
	return s.st.RunsOf(workflowName)
}

// Lineage answers lin(⟨proc:port[idx]⟩, focus) for one run using the chosen
// algorithm.
func (s *System) Lineage(m Method, runID, proc, port string, idx value.Index, focus lineage.Focus) (*lineage.Result, error) {
	switch m {
	case Naive:
		return lineage.NewNaive(s.st).Lineage(runID, proc, port, idx, focus)
	case IndexProj:
		ip, err := s.indexProjFor(runID)
		if err != nil {
			return nil, err
		}
		return ip.Lineage(runID, proc, port, idx, focus)
	default:
		return nil, fmt.Errorf("core: unknown method %v", m)
	}
}

// LineageMultiRun answers the query across several runs of one workflow.
func (s *System) LineageMultiRun(m Method, runIDs []string, proc, port string, idx value.Index, focus lineage.Focus) (*lineage.Result, error) {
	if len(runIDs) == 0 {
		return lineage.NewResult(), nil
	}
	switch m {
	case Naive:
		return lineage.NewNaive(s.st).LineageMultiRun(runIDs, proc, port, idx, focus)
	case IndexProj:
		ip, err := s.indexProjFor(runIDs[0])
		if err != nil {
			return nil, err
		}
		if err := s.checkSameWorkflow(runIDs); err != nil {
			return nil, err
		}
		return ip.LineageMultiRun(runIDs, proc, port, idx, focus)
	default:
		return nil, fmt.Errorf("core: unknown method %v", m)
	}
}

// LineageMultiRunParallel answers the query across several runs of one
// workflow using the parallel multi-run executor (worker pool + batched
// store probes). Only INDEXPROJ supports parallel execution; the naïve
// method falls back to its sequential multi-run traversal.
func (s *System) LineageMultiRunParallel(ctx context.Context, m Method, runIDs []string, proc, port string, idx value.Index, focus lineage.Focus, opt lineage.MultiRunOptions) (*lineage.Result, error) {
	if len(runIDs) == 0 {
		return lineage.NewResult(), nil
	}
	if m != IndexProj {
		return s.LineageMultiRun(m, runIDs, proc, port, idx, focus)
	}
	ip, err := s.indexProjFor(runIDs[0])
	if err != nil {
		return nil, err
	}
	if err := s.checkSameWorkflow(runIDs); err != nil {
		return nil, err
	}
	return ip.LineageMultiRunParallel(ctx, runIDs, proc, port, idx, focus, opt)
}

// checkSameWorkflow rejects a multi-run query whose runs are unknown or span
// several workflow definitions. Unknown runs surface store.ErrUnknownRun, so
// callers (and the provq CLI) can distinguish "no such run" from a genuinely
// empty lineage answer.
func (s *System) checkSameWorkflow(runIDs []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range runIDs[1:] {
		wf, ok := s.runWf[r]
		if !ok {
			return fmt.Errorf("core: %w: %q", store.ErrUnknownRun, r)
		}
		if wf != s.runWf[runIDs[0]] {
			return fmt.Errorf("core: multi-run query spans different workflows (%s vs %s)", runIDs[0], r)
		}
	}
	return nil
}

func (s *System) indexProjFor(runID string) (*lineage.IndexProj, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wfName, ok := s.runWf[runID]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", store.ErrUnknownRun, runID)
	}
	ip, ok := s.ips[wfName]
	if !ok {
		return nil, fmt.Errorf("core: run %q belongs to unregistered workflow %q (register the definition first)", runID, wfName)
	}
	return ip, nil
}

// Affected answers the forward (impact) query: the output bindings of focus
// processors that depend on the given binding. Forward queries always use
// the extensional traversal (see lineage.Impact).
func (s *System) Affected(runID, proc, port string, idx value.Index, focus lineage.Focus) (*lineage.Result, error) {
	return lineage.NewImpact(s.st).Affected(runID, proc, port, idx, focus)
}

// Save snapshots the provenance store to a file.
func (s *System) Save(path string) error { return s.st.Save(path) }
