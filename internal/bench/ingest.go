package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

// GenerateTestbedTraces executes Testbed(l) `runs` times with input list
// size d and returns the recorded traces without storing them — the input
// of the ingest-throughput experiment, pre-generated so the measurement
// covers ingestion only, not workflow execution.
func GenerateTestbedTraces(l, d, runs int) ([]*trace.Trace, error) {
	wf := gen.Testbed(l)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	traces := make([]*trace.Trace, 0, runs)
	for r := 0; r < runs; r++ {
		_, tr, err := eng.RunTrace(wf, fmt.Sprintf("run%03d", r), gen.TestbedInputs(d))
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// ingestMode is one measured configuration of the ingest experiment.
type ingestMode struct {
	label string
	load  func(*store.Store, []*trace.Trace) error
}

// Ingest measures bulk trace-ingest throughput on the Fig. 5 testbed
// workload (l=75, d=50, 8 runs; reduced in quick mode): the same
// pre-generated traces loaded through the run writer with a flush after
// every event (BatchRows=1), in default-size batches, and through the
// concurrent ingest executor. Rows/sec counts the Table 1
// event records (xform_in + xform_out + xfer); every mode stores an
// identical database, checked via record counts after each load.
func Ingest(o Options) (*Report, error) {
	l, d, runs := 75, 50, 8
	if o.Quick {
		l, d, runs = 10, 10, 3
	}
	traces, err := GenerateTestbedTraces(l, d, runs)
	if err != nil {
		return nil, err
	}

	ctx := o.ctx()
	modes := []ingestMode{
		{"BatchRows=1 P=1", func(s *store.Store, ts []*trace.Trace) error {
			return s.IngestTraces(ctx, ts, store.IngestOptions{Parallelism: 1, BatchRows: 1})
		}},
		{"batched P=1", func(s *store.Store, ts []*trace.Trace) error {
			return s.IngestTraces(ctx, ts, store.IngestOptions{Parallelism: 1})
		}},
		{"batched P=4", func(s *store.Store, ts []*trace.Trace) error {
			return s.IngestTraces(ctx, ts, store.IngestOptions{Parallelism: 4})
		}},
	}

	rep := &Report{
		ID:    "ingest",
		Title: "Bulk trace-ingest throughput: BatchRows=1 vs. batched vs. batched+parallel",
		Caption: fmt.Sprintf("Testbed l=%d, d=%d, %d runs, pre-generated traces; batch = %d rows.\n"+
			"rows = Table 1 event records stored; every mode loads an identical\n"+
			"database. speedup is rows/sec over the BatchRows=1 baseline. flushes and\n"+
			"flush_ms come from the store's obs counters (per rep / per flush).",
			l, d, runs, store.DefaultBatchRows),
		Columns: []string{"mode", "runs", "rows", "elapsed_ms", "rows_per_sec", "speedup",
			"flushes", "flush_ms"},
	}

	var wantRows, baselineRate int
	reps := o.queries()
	if reps > 3 {
		reps = 3 // ingest runs are long; best-of-3 is enough
	}
	for _, m := range modes {
		var best time.Duration
		var rows int
		s0 := obs.Default.Snapshot()
		for rep := 0; rep < reps; rep++ {
			st, err := store.OpenMemory()
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := m.load(st, traces); err != nil {
				st.Close()
				return nil, err
			}
			elapsed := time.Since(start)
			rows, err = st.TotalRecords("")
			st.Close()
			if err != nil {
				return nil, err
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		if wantRows == 0 {
			wantRows = rows
		} else if rows != wantRows {
			return nil, fmt.Errorf("bench: ingest mode %q stored %d rows, baseline stored %d", m.label, rows, wantRows)
		}
		// Counter-derived flush stats across the reps of this mode: number of
		// run-writer flushes per rep and mean wall time per flush.
		dm := obs.Default.Snapshot().Sub(s0)
		flushes := dm.Counter("store.ingest.batches")
		rate := int(float64(rows) / best.Seconds())
		if baselineRate == 0 {
			baselineRate = rate
		}
		rep.Rows = append(rep.Rows, []string{
			m.label, fmt.Sprint(runs), fmt.Sprint(rows), ms(best),
			fmt.Sprint(rate),
			fmt.Sprintf("%.2fx", float64(rate)/float64(baselineRate)),
			fmt.Sprint(flushes / int64(reps)),
			msNs(dm.HistSum("store.ingest.flush_ns"), flushes),
		})
	}
	return rep, nil
}
