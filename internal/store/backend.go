package store

import (
	"context"

	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// TraceQuerier is the extensional read surface the NI and Impact evaluators
// need from a provenance store: direct navigation of the stored provenance
// graph, one event at a time. Implementations must be safe for concurrent
// use.
type TraceQuerier interface {
	// XformsByOutput returns the xform events with an output binding on the
	// given port matching idx (granularity rules of §2.3/§2.4).
	XformsByOutput(runID, proc, port string, idx value.Index) ([]Xform, error)
	// XformsByInput is the forward dual: events matched through an input.
	XformsByInput(runID, proc, port string, idx value.Index) ([]ForwardXform, error)
	// XfersTo returns the xfer events whose sink is the given port.
	XfersTo(runID, proc, port string) ([]Xfer, error)
	// XfersFrom returns the xfer events whose source is the given port.
	XfersFrom(runID, proc, port string) ([]Xfer, error)
	// Value materializes one stored port value.
	Value(runID string, valID int64) (value.Value, error)
	// HasRun reports whether the store holds the given run.
	HasRun(runID string) (bool, error)
}

// Backend is the full store surface the System facade, the CLIs and the
// benchmark harness program against: both lineage read paths, the write and
// bulk-ingest paths, and the administrative operations. *Store implements it
// directly; shard.ShardedStore implements it by routing each run to its
// owning shard and scatter-gathering the multi-run operations.
type Backend interface {
	LineageQuerier
	TraceQuerier

	// NewRunWriter registers a run and returns a batching collector.
	NewRunWriter(ctx context.Context, runID, workflowName string, batchRows int) (*RunWriter, error)
	// Ingest loads every task's run concurrently through run writers.
	Ingest(ctx context.Context, tasks []IngestTask, opt IngestOptions) error
	// IngestTraces bulk-loads a set of recorded traces.
	IngestTraces(ctx context.Context, traces []*trace.Trace, opt IngestOptions) error
	// StoreTrace persists one complete in-memory trace.
	StoreTrace(t *trace.Trace) error
	// LoadTrace reconstructs the full in-memory trace of a stored run.
	LoadTrace(runID string) (*trace.Trace, error)

	// ListRuns returns all stored runs.
	ListRuns() ([]RunInfo, error)
	// RunsOf returns the IDs of all runs of the named workflow.
	RunsOf(workflow string) ([]string, error)
	// RecordCounts reports per-table event rows for a run ("" for all runs).
	RecordCounts(runID string) (xformIn, xformOut, xfers int, err error)
	// TotalRecords returns the Table 1 record count ("" for all runs).
	TotalRecords(runID string) (int, error)
	// DeleteRun removes every record of a run.
	DeleteRun(runID string) (int, error)
	// Verify checks the integrity of one stored run.
	Verify(runID string, wf *workflow.Workflow) (*VerifyReport, error)

	// Save snapshots the store to the given path.
	Save(path string) error
	// DSN returns the store's data source name.
	DSN() string
	// Close releases the store.
	Close() error
}

var _ Backend = (*Store)(nil)

// Checkpointer is an optional interface a store implements when it can bound
// its recovery work on demand: Checkpoint snapshots durable state and
// truncates the write-ahead log. provd's graceful drain checkpoints every
// open tenant store through this interface before closing it.
type Checkpointer interface {
	Checkpoint() error
}

// ContextLineageQuerier is an optional interface a LineageQuerier implements
// when its probes can honor a caller deadline (shard.ShardedStore: a stalled
// or dead replica must not hold a query past its context). The multi-run
// executor prefers these ctx-bounded variants when the store offers them;
// semantics otherwise match the LineageQuerier methods exactly.
type ContextLineageQuerier interface {
	LineageQuerier
	InputBindingsCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]Binding, error)
	InputBindingsBatchCtx(ctx context.Context, runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error)
	ValueCtx(ctx context.Context, runID string, valID int64) (value.Value, error)
	ValuesBatchCtx(ctx context.Context, refs []ValueRef) (map[ValueRef]value.Value, error)
}

// ContextTraceQuerier is an optional interface a TraceQuerier implements
// when its extensional probes and run-metadata reads can honor a caller
// deadline (shard.ShardedStore: every one of these routes through a replica
// set whose members may be stalled or dead). Callers holding a request
// context — the provd query path, provq with -timeout — prefer these
// variants; semantics otherwise match the plain methods exactly.
type ContextTraceQuerier interface {
	TraceQuerier
	XformsByOutputCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]Xform, error)
	XformsByInputCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]ForwardXform, error)
	XfersToCtx(ctx context.Context, runID, proc, port string) ([]Xfer, error)
	XfersFromCtx(ctx context.Context, runID, proc, port string) ([]Xfer, error)
	HasRunCtx(ctx context.Context, runID string) (bool, error)
	LoadTraceCtx(ctx context.Context, runID string) (*trace.Trace, error)
	VerifyCtx(ctx context.Context, runID string, wf *workflow.Workflow) (*VerifyReport, error)
}

// ContextColumnScanner is the ctx-bounded variant of ColumnScanner; column
// segments load lazily from disk at query time, so the deadline genuinely
// bounds I/O.
type ContextColumnScanner interface {
	ColumnScanner
	ColScanBindingsCtx(ctx context.Context, runIDs []string, proc, port string, idx value.Index) (byRun map[string][]Binding, missing []string, err error)
}

// ReplicaHealth is one replica's health row as reported by a HealthReporter:
// its role in the replica set, its circuit-breaker state, and the breaker's
// lifetime call accounting. provd's /healthz renders these.
type ReplicaHealth struct {
	Shard     int    `json:"shard"`
	Replica   int    `json:"replica"`
	Role      string `json:"role"`    // "primary" or "follower"
	Breaker   string `json:"breaker"` // "closed", "open" or "half-open"
	Down      bool   `json:"down,omitempty"`
	Successes int64  `json:"successes"`
	Failures  int64  `json:"failures"`
	Trips     int64  `json:"trips"`
	// Epoch is the replica's committed snapshot epoch; a follower whose epoch
	// trails its primary's is still catching up.
	Epoch uint64 `json:"epoch"`
}

// HealthReporter is an optional interface a store implements when it tracks
// per-replica health (shard.ShardedStore with replication). Single-engine
// stores do not implement it; a health endpoint then reports only liveness.
type HealthReporter interface {
	ReplicaHealth() []ReplicaHealth
}

// RunPartitioner is an optional interface a LineageQuerier implements when
// its runs are physically partitioned (shard.ShardedStore: one independent
// store per shard). PartitionRuns splits a run set into groups of
// co-resident runs; the multi-run executor forms its probe chunks within
// one group at a time, so every batched probe lands on a single partition
// instead of scattering across several. The groups must cover exactly the
// input runs, without duplicates.
type RunPartitioner interface {
	PartitionRuns(runIDs []string) [][]string
}
