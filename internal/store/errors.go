package store

import (
	"context"
	"errors"
	"time"

	"repro/internal/reldb"
)

// Sentinel errors for the conditions callers branch on; they are wrapped
// with %w so errors.Is sees them through the added context.
var (
	// ErrDuplicateRun reports an attempt to register a run ID that the
	// store already holds.
	ErrDuplicateRun = errors.New("store: run already exists")
	// ErrUnknownRun reports an operation against a run ID the store does
	// not hold.
	ErrUnknownRun = errors.New("store: unknown run")
	// ErrUnavailable is the sentinel wrapped by every "all replicas
	// exhausted" failure (resilience.ErrUnavailable is the same value).
	// Callers that can degrade (the multi-run executor's Partial mode) match
	// it with errors.Is to distinguish an unavailable shard — answerable
	// minus its runs — from a semantic failure that must surface.
	ErrUnavailable = errors.New("resilience: unavailable")
)

// Retry policy for transient storage errors (reldb.IsTransient): a failed
// commit leaves the engine rolled back and the log repaired, so retrying is
// safe — a retried batch can never be applied twice.
const (
	retryAttempts = 3
	retryBackoff  = time.Millisecond
)

// withRetry runs op, retrying transient failures with exponential backoff
// until the attempt budget or the context runs out. Non-transient errors
// return immediately.
func withRetry(ctx context.Context, op func() error) error {
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !reldb.IsTransient(err) || attempt >= retryAttempts {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}
