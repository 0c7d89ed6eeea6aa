// Package resilience provides the building blocks the sharded store's
// replicated read path is assembled from: a deadline/backoff retry policy, a
// per-replica circuit breaker driven by error and latency accounting, and a
// hedged-request delay tracker that converts an observed latency window into
// the p99-based delay after which a second (follower) probe is worth firing.
//
// The package is deliberately mechanism-only — it knows nothing about shards,
// stores or replicas. internal/shard composes these pieces into replica sets:
// the breaker decides whether a replica is worth trying at all, the policy
// bounds how long a single attempt may stall before the next replica is
// tried, and the hedge tracker decides when tail latency alone justifies a
// redundant probe.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrUnavailable is the sentinel wrapped by every "all replicas exhausted"
// failure: store.ErrUnavailable, so that readers of a store match it without
// depending on this package.
var ErrUnavailable = store.ErrUnavailable

// Policy bounds one resilient operation: how long a single attempt may take,
// how long the whole operation may take when the caller's context carries no
// deadline of its own, and how retries back off.
type Policy struct {
	// AttemptTimeout bounds one attempt (one replica call). An attempt that
	// neither succeeds nor fails within it is treated as stalled: the caller
	// moves on to the next replica while the attempt finishes (and is
	// accounted) in the background. 0 means DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// OpTimeout bounds the whole operation when ctx has no deadline.
	// 0 means DefaultOpTimeout.
	OpTimeout time.Duration
	// Retries is the number of extra attempts Do makes after the first
	// failure. 0 means no retries.
	Retries int
	// Backoff is the pause before the first retry, doubling each retry.
	// 0 means DefaultBackoff (when Retries > 0).
	Backoff time.Duration
}

// Defaults for the zero Policy.
const (
	DefaultAttemptTimeout = 1 * time.Second
	DefaultOpTimeout      = 15 * time.Second
	DefaultBackoff        = 5 * time.Millisecond
)

func (p Policy) normalize() Policy {
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = DefaultAttemptTimeout
	}
	if p.OpTimeout <= 0 {
		p.OpTimeout = DefaultOpTimeout
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultBackoff
	}
	return p
}

// Normalized returns the policy with defaults filled in.
func (p Policy) Normalized() Policy { return p.normalize() }

// Do runs op, retrying transient failures with exponential backoff until the
// retry budget or the context is exhausted. It is the write path's retry
// helper (follower catch-up copies, dual writes); the read path composes the
// policy's timeouts itself because its "retry" is trying a different replica.
func (p Policy) Do(ctx context.Context, op func() error) error {
	p = p.normalize()
	if ctx == nil {
		ctx = context.Background()
	}
	backoff := p.Backoff
	var err error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return err
			}
			return cerr
		}
		if err = op(); err == nil {
			return nil
		}
		if attempt >= p.Retries {
			return err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// Breaker states.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half-open"
)

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips the
	// breaker open. 0 means DefaultFailureThreshold.
	FailureThreshold int
	// OpenFor is how long a tripped breaker rejects calls before letting a
	// single half-open probe through. 0 means DefaultOpenFor.
	OpenFor time.Duration
	// SlowCall, when > 0, counts a success slower than this as a failure for
	// tripping purposes — the latency half of the error/latency accounting: a
	// replica that answers correctly but pathologically slowly is as useless
	// to the tail as a dead one.
	SlowCall time.Duration
}

// Defaults for the zero BreakerConfig.
const (
	DefaultFailureThreshold = 3
	DefaultOpenFor          = 500 * time.Millisecond
)

// Breaker is a per-replica circuit breaker: closed (calls flow), open (calls
// rejected without being tried), half-open (one probe in flight decides). It
// is driven entirely by Allow/Record — it never spawns goroutines — and is
// safe for concurrent use. Late Records from abandoned (stalled) calls are
// accepted: a stalled replica that finally errors keeps its breaker open, one
// that finally succeeds closes it.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable for tests

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time // zero: closed
	probeAt     time.Time // non-zero: a half-open probe is in flight
	successes   int64
	failures    int64
	opens       int64
}

// NewBreaker returns a closed breaker with defaults filled in.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = DefaultOpenFor
	}
	return &Breaker{cfg: cfg, now: time.Now}
}

// SetClock replaces the breaker's clock (tests only).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// Allow reports whether a call may proceed. In the open state it returns
// false until OpenFor has elapsed, then admits exactly one half-open probe
// (a probe abandoned for another OpenFor is presumed lost and superseded).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.openUntil.IsZero() {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	// Open interval elapsed: half-open. One probe at a time.
	if !b.probeAt.IsZero() && now.Sub(b.probeAt) < b.cfg.OpenFor {
		return false
	}
	b.probeAt = now
	return true
}

// Record accounts one completed call. err != nil, or a success slower than
// SlowCall, counts as a failure.
func (b *Breaker) Record(d time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	failure := err != nil || (b.cfg.SlowCall > 0 && d >= b.cfg.SlowCall)
	if failure {
		b.failures++
		b.consecutive++
		halfOpen := !b.openUntil.IsZero() && !b.probeAt.IsZero()
		if b.consecutive >= b.cfg.FailureThreshold || halfOpen {
			if b.openUntil.IsZero() {
				b.opens++
			}
			b.openUntil = b.now().Add(b.cfg.OpenFor)
			b.probeAt = time.Time{}
			b.consecutive = 0
		}
		return
	}
	b.successes++
	b.consecutive = 0
	b.openUntil = time.Time{}
	b.probeAt = time.Time{}
}

// State returns the breaker's current state string.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return StateClosed
	}
	if b.now().Before(b.openUntil) {
		return StateOpen
	}
	return StateHalfOpen
}

// Stats returns the lifetime success, failure and trip counts.
func (b *Breaker) Stats() (successes, failures, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.successes, b.failures, b.opens
}

// Hedge tracker parameters.
const (
	hedgeWindow = 128 // sliding window of primary latencies
	hedgeWarm   = 32  // observations before the window overrides the default
	hedgeEvery  = 16  // recompute the cached delay every N observations

	DefaultHedgeDelay = 2 * time.Millisecond
	MinHedgeDelay     = 200 * time.Microsecond
	MaxHedgeDelay     = 100 * time.Millisecond
)

// HedgeTracker converts a sliding window of observed primary-read latencies
// into the delay after which a hedged follower probe should fire: twice the
// window's p99, clamped. Until the window warms up it returns the default —
// hedging too eagerly on a cold window would double load for nothing.
type HedgeTracker struct {
	def, min, max time.Duration

	mu     sync.Mutex
	window [hedgeWindow]time.Duration
	n      int // filled slots
	i      int // next slot
	count  int // observations since last recompute
	cached time.Duration
}

// NewHedgeTracker returns a tracker with the given default delay (0 selects
// DefaultHedgeDelay; clamping bounds are the package constants).
func NewHedgeTracker(def time.Duration) *HedgeTracker {
	if def <= 0 {
		def = DefaultHedgeDelay
	}
	return &HedgeTracker{def: def, min: MinHedgeDelay, max: MaxHedgeDelay, cached: def}
}

// Observe records one successful primary latency.
func (h *HedgeTracker) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.window[h.i] = d
	h.i = (h.i + 1) % hedgeWindow
	if h.n < hedgeWindow {
		h.n++
	}
	h.count++
	if h.n >= hedgeWarm && h.count >= hedgeEvery {
		h.count = 0
		h.cached = h.recompute()
	}
}

// recompute returns 2×p99 of the filled window, clamped. Called under mu.
func (h *HedgeTracker) recompute() time.Duration {
	lats := make([]time.Duration, h.n)
	copy(lats, h.window[:h.n])
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	k := int(0.99*float64(h.n)+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= h.n {
		k = h.n - 1
	}
	d := 2 * lats[k]
	if d < h.min {
		d = h.min
	}
	if d > h.max {
		d = h.max
	}
	return d
}

// Delay returns the current hedge delay.
func (h *HedgeTracker) Delay() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < hedgeWarm {
		return h.def
	}
	return h.cached
}

// Unavailable wraps the attempt errors of an exhausted replica set into one
// error that matches ErrUnavailable and preserves every member's chain (so
// errors.Is still finds e.g. a store's corruption sentinel inside).
func Unavailable(what string, attempts ...error) error {
	members := append([]error{ErrUnavailable}, attempts...)
	return fmt.Errorf("%s: %w", what, errors.Join(members...))
}
