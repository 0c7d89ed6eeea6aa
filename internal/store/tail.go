package store

import (
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// This file implements streaming ingest: TailIngest consumes a live feed of
// trace.Events (run_start / xform / xfer / run_end) and applies it through
// the same run writers the bulk path uses, while readers keep
// querying — a View pinned before a burst is byte-stable through it, and
// the colstore fencing in colseg.go keeps segments fresh-or-absent as the
// epoch advances under the feed.
//
// Events that cannot be applied — malformed payloads, out-of-order sequence
// numbers, events for runs that were never started (or already ended),
// processors absent from the workflow spec — are not dropped and do not
// fail the feed: they land in a persistent dead-letter queue (the dlq
// table, part of the store schema, durable wherever the store is). The DLQ
// is inspected with ListDeadLetters and drained with RetryDeadLetters,
// which replays the letters through the same validation; letters that fail
// again return to the queue with their retry count bumped.

var (
	obsTailApplied = obs.C("tail.events_applied")
	obsTailDead    = obs.C("tail.events_dead_lettered")
	obsTailRetried = obs.C("tail.dlq_retried")
)

// TailOptions configures a streaming ingest session.
type TailOptions struct {
	// Specs, when non-nil, validates the feed against workflow definitions:
	// run_start events must name a spec in the map, and xform/xfer events
	// must reference processors the spec declares; violations dead-letter.
	// A nil map skips spec validation.
	Specs map[string]*workflow.Workflow
	// BatchRows is the run writer's flush threshold per run
	// (DefaultBatchRows when 0).
	BatchRows int
}

// TailStats summarizes a streaming ingest session.
type TailStats struct {
	Applied      int `json:"applied"`       // events validated and applied
	DeadLettered int `json:"dead_lettered"` // events routed to the DLQ
	RunsStarted  int `json:"runs_started"`
	RunsEnded    int `json:"runs_ended"`
}

// TailIngester is the optional streaming-ingest surface of a store backend;
// *Store implements it directly, shard.ShardedStore by demultiplexing the
// feed across its shards' primaries and followers.
type TailIngester interface {
	TailIngest(ctx context.Context, events <-chan trace.Event, opt TailOptions) (TailStats, error)
}

// DeadLetterQueue is the optional operator surface of the dead-letter queue;
// provq's -dlq and -dlq-retry commands type-assert the backend for it.
type DeadLetterQueue interface {
	ListDeadLetters() ([]DeadLetter, error)
	RetryDeadLetters(ctx context.Context, opt TailOptions) (retried, failed int, err error)
}

var (
	_ TailIngester    = (*Store)(nil)
	_ DeadLetterQueue = (*Store)(nil)
)

// TailIngest consumes events until the channel closes or ctx is canceled,
// applying valid events through per-run writers and dead-lettering
// invalid ones. Runs still open when the feed ends are flushed and closed
// (their events up to that point are durable and queryable).
//
// Only infrastructure failures — the engine rejecting a write, the DLQ
// itself failing — abort the session with an error; per-event problems
// never do.
func (s *Store) TailIngest(ctx context.Context, events <-chan trace.Event, opt TailOptions) (TailStats, error) {
	t := &tailSession{s: s, opt: opt, open: make(map[string]*tailRun)}
	for {
		select {
		case <-ctx.Done():
			err := t.finish(ctx)
			if err == nil {
				err = ctx.Err()
			}
			return t.stats, err
		case ev, ok := <-events:
			if !ok {
				return t.stats, t.finish(ctx)
			}
			if err := t.offer(ctx, ev, 0); err != nil {
				t.finish(ctx)
				return t.stats, err
			}
		}
	}
}

// tailRun is the per-run state of an open feed: its writer and the last
// sequence number accepted.
type tailRun struct {
	w       *RunWriter
	spec    *workflow.Workflow // nil when spec validation is off
	lastSeq int64
}

type tailSession struct {
	s     *Store
	opt   TailOptions
	open  map[string]*tailRun
	stats TailStats
}

// offer validates and applies one event; validation failures dead-letter it
// (with the given retry count), infrastructure failures are returned.
func (t *tailSession) offer(ctx context.Context, ev trace.Event, retries int) error {
	reason, err := t.apply(ctx, ev)
	if err != nil {
		return err
	}
	if reason != "" {
		t.stats.DeadLettered++
		obsTailDead.Add(1)
		return t.s.deadLetterEvent(ev, reason, retries)
	}
	t.stats.Applied++
	obsTailApplied.Add(1)
	return nil
}

// apply applies one event, returning a non-empty dead-letter reason when the
// event is invalid and an error only for infrastructure failures.
func (t *tailSession) apply(ctx context.Context, ev trace.Event) (reason string, err error) {
	if ev.RunID == "" {
		return "malformed: missing run_id", nil
	}
	run, isOpen := t.open[ev.RunID]
	if isOpen && ev.Seq <= run.lastSeq {
		return fmt.Sprintf("out of order: seq %d after %d", ev.Seq, run.lastSeq), nil
	}
	switch ev.Kind {
	case trace.EventRunStart:
		if isOpen {
			return "duplicate run_start", nil
		}
		var spec *workflow.Workflow
		if t.opt.Specs != nil {
			if spec = t.opt.Specs[ev.Workflow]; spec == nil {
				return fmt.Sprintf("unknown workflow %q", ev.Workflow), nil
			}
		}
		w, err := t.s.NewRunWriter(ctx, ev.RunID, ev.Workflow, t.opt.BatchRows)
		if errors.Is(err, ErrDuplicateRun) {
			return "run already stored", nil
		}
		if err != nil {
			return "", err
		}
		t.open[ev.RunID] = &tailRun{w: w, spec: spec, lastSeq: ev.Seq}
		t.stats.RunsStarted++
		return "", nil

	case trace.EventXform:
		if !isOpen {
			return "unknown run: no run_start", nil
		}
		if ev.Xform == nil {
			return "malformed: xform event without payload", nil
		}
		if reason := specCheck(run.spec, ev.Xform.Proc); reason != "" {
			return reason, nil
		}
		if err := run.w.Xform(*ev.Xform); err != nil {
			return "", err
		}
		run.lastSeq = ev.Seq
		return "", nil

	case trace.EventXfer:
		if !isOpen {
			return "unknown run: no run_start", nil
		}
		if ev.Xfer == nil {
			return "malformed: xfer event without payload", nil
		}
		for _, proc := range []string{ev.Xfer.From.Proc, ev.Xfer.To.Proc} {
			if reason := specCheck(run.spec, proc); reason != "" {
				return reason, nil
			}
		}
		if err := run.w.Xfer(*ev.Xfer); err != nil {
			return "", err
		}
		run.lastSeq = ev.Seq
		return "", nil

	case trace.EventRunEnd:
		if !isOpen {
			return "unknown run: no run_start", nil
		}
		delete(t.open, ev.RunID)
		if err := run.w.Close(); err != nil {
			return "", err
		}
		t.stats.RunsEnded++
		return "", nil

	default:
		return fmt.Sprintf("malformed: unknown event kind %q", ev.Kind), nil
	}
}

// specCheck validates a (possibly path-qualified) processor name against the
// run's workflow spec; the empty name is the workflow's own port space and
// always valid.
func specCheck(spec *workflow.Workflow, proc string) string {
	if spec == nil || proc == trace.WorkflowProc {
		return ""
	}
	root := proc
	if i := strings.IndexByte(root, '/'); i >= 0 {
		root = root[:i]
	}
	if spec.Processor(root) == nil {
		return fmt.Sprintf("unknown processor %q", proc)
	}
	return ""
}

// finish flushes and closes every run still open, keeping the first error.
func (t *tailSession) finish(ctx context.Context) error {
	var first error
	for runID, run := range t.open {
		delete(t.open, runID)
		if err := run.w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DeadLetter is one entry of the dead-letter queue.
type DeadLetter struct {
	Seq     int64  `json:"seq"`
	RunID   string `json:"run_id"`
	Kind    string `json:"kind"`
	Reason  string `json:"reason"`
	Event   string `json:"event"` // the original event, JSON-encoded
	Retries int    `json:"retries"`
}

// deadLetterEvent persists one rejected event to the DLQ.
func (s *Store) deadLetterEvent(ev trace.Event, reason string, retries int) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		// The event cannot even be re-encoded; keep a diagnostic stub so the
		// rejection is still visible in the queue.
		payload = []byte(fmt.Sprintf(`{"kind":%q,"run_id":%q}`, ev.Kind, ev.RunID))
	}
	return s.dlqInsert(ev.RunID, string(ev.Kind), reason, string(payload), retries)
}

func (s *Store) dlqInsert(runID, kind, reason, eventJSON string, retries int) error {
	seq, err := s.nextDLQSeq()
	if err != nil {
		return err
	}
	_, err = s.db.Exec(
		`INSERT INTO dlq (seq, run_id, kind, reason, event, retries) VALUES (?, ?, ?, ?, ?, ?)`,
		seq, runID, kind, reason, eventJSON, retries)
	if err != nil {
		return fmt.Errorf("store: dead-lettering event: %w", err)
	}
	return nil
}

// nextDLQSeq allocates the next dead-letter sequence number, seeding the
// counter from the stored maximum on first use (the queue is persistent, so
// the counter must survive reopen).
func (s *Store) nextDLQSeq() (int64, error) {
	s.dlqMu.Lock()
	defer s.dlqMu.Unlock()
	if s.dlqNext == 0 {
		var max sql.NullInt64
		if err := s.db.QueryRow(`SELECT MAX(seq) FROM dlq`).Scan(&max); err != nil {
			return 0, fmt.Errorf("store: reading dlq sequence: %w", err)
		}
		s.dlqNext = max.Int64 + 1
	}
	seq := s.dlqNext
	s.dlqNext++
	return seq, nil
}

// ListDeadLetters returns the dead-letter queue in arrival order.
func (s *Store) ListDeadLetters() ([]DeadLetter, error) {
	rows, err := s.db.Query(
		`SELECT seq, run_id, kind, reason, event, retries FROM dlq ORDER BY seq`)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []DeadLetter
	for rows.Next() {
		var dl DeadLetter
		if err := rows.Scan(&dl.Seq, &dl.RunID, &dl.Kind, &dl.Reason, &dl.Event, &dl.Retries); err != nil {
			return nil, err
		}
		out = append(out, dl)
	}
	return out, rows.Err()
}

// RetryDeadLetters drains the queue and replays every letter through the
// same validation as live ingest, in original arrival order. Letters that
// apply cleanly are gone for good; letters that fail again return to the
// queue with their retry count incremented. It returns how many letters
// were replayed successfully and how many re-dead-lettered.
func (s *Store) RetryDeadLetters(ctx context.Context, opt TailOptions) (retried, failed int, err error) {
	letters, err := s.ListDeadLetters()
	if err != nil || len(letters) == 0 {
		return 0, 0, err
	}
	if _, err := s.db.Exec(`DELETE FROM dlq WHERE seq <= ?`, letters[len(letters)-1].Seq); err != nil {
		return 0, 0, fmt.Errorf("store: draining dlq: %w", err)
	}
	t := &tailSession{s: s, opt: opt, open: make(map[string]*tailRun)}
	for _, dl := range letters {
		var ev trace.Event
		if err := json.Unmarshal([]byte(dl.Event), &ev); err != nil {
			// The stored payload itself is unreadable; park it again rather
			// than lose it.
			if err := s.dlqInsert(dl.RunID, dl.Kind, "undecodable: "+err.Error(), dl.Event, dl.Retries+1); err != nil {
				return retried, failed + 1, err
			}
			failed++
			continue
		}
		before := t.stats.DeadLettered
		if err := t.offer(ctx, ev, dl.Retries+1); err != nil {
			t.finish(ctx)
			return retried, failed, err
		}
		if t.stats.DeadLettered > before {
			failed++
		} else {
			retried++
			obsTailRetried.Add(1)
		}
	}
	return retried, failed, t.finish(ctx)
}

// dlqMu/dlqNext live here rather than on Store's main block to keep the DLQ
// machinery self-contained; see nextDLQSeq.
type dlqState struct {
	dlqMu   sync.Mutex
	dlqNext int64 // 0 = unseeded; seeded to MAX(seq)+1 on first use
}
