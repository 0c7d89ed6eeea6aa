// Command wfgen generates workflow specifications as JSON: the synthetic
// testbed family of Fig. 5 (parameterized by chain length l) and the GK/PD
// reconstructions. With -runs it also executes the generated workflow and
// bulk-ingests the traces into a provenance store, reporting throughput.
//
// Usage:
//
//	wfgen -wf testbed -l 75 -o testbed75.json
//	wfgen -wf gk
//	wfgen -wf pd -o pd.json
//	wfgen -wf testbed -l 75 -d 50 -runs 8 -parallel 4 -batch 512
//	wfgen -wf testbed -runs 4 -store durable:/tmp/prov
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "wfgen:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	// Ingest runs under a context cancelled by Ctrl-C (SIGINT/SIGTERM) or by
	// -timeout, so a long bulk load stops cleanly: in-flight batch flushes
	// finish or roll back, and the store stays reopenable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fs := flag.NewFlagSet("wfgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("wf", "testbed", "workflow to generate: testbed, gk, pd")
	l := fs.Int("l", 10, "testbed chain length")
	out := fs.String("o", "", "output file (default stdout)")
	runs := fs.Int("runs", 0, "execute the workflow this many times and ingest the traces")
	d := fs.Int("d", 10, "input size per run (testbed list size, GK gene lists, PD abstracts)")
	dsn := fs.String("store", "", "ingest target DSN (memory:<name>, file:<path>, durable:<dir>, shard:<dir>?n=N&r=R; default private memory)")
	parallel := fs.Int("parallel", store.DefaultIngestParallelism, "runs ingested concurrently")
	batch := fs.Int("batch", store.DefaultBatchRows, "run-writer flush threshold in rows (1 = flush after every event)")
	timeout := fs.Duration("timeout", 0, "abort ingest after this long (0 = no limit)")
	oo := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsDone, err := oo.Start(stdout, stderr)
	if err != nil {
		return err
	}
	defer obsDone()
	var w *workflow.Workflow
	switch *kind {
	case "testbed":
		if *l < 1 {
			return fmt.Errorf("testbed chain length must be positive, got %d", *l)
		}
		w = gen.Testbed(*l)
	case "gk":
		w = gen.GenesToKegg()
	case "pd":
		w = gen.ProteinDiscovery()
	default:
		return fmt.Errorf("unknown workflow kind %q (want testbed, gk or pd)", *kind)
	}
	if err := w.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(w)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}

	if *runs > 0 {
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		return ingest(ctx, stdout, w, *kind, *runs, *d, *dsn, *parallel, *batch)
	}
	return nil
}

// ingest executes the workflow `runs` times and loads the traces through the
// store's concurrent bulk-ingest executor, streaming each run's events
// straight into a run writer.
func ingest(ctx context.Context, stdout io.Writer, w *workflow.Workflow, kind string, runs, d int, dsn string, parallel, batch int) error {
	if d < 1 {
		return fmt.Errorf("input size must be positive, got %d", d)
	}
	inputs := func(r int) map[string]value.Value {
		switch kind {
		case "gk":
			return gen.GKInputs(d, 4)
		case "pd":
			return gen.PDInputs(fmt.Sprintf("query sweep %d", r), d)
		default:
			return gen.TestbedInputs(d)
		}
	}
	eng := engine.New(gen.Registry())

	var st store.Backend
	var err error
	switch {
	case dsn == "":
		st, err = store.OpenMemory()
	case shard.IsShardDSN(dsn):
		st, err = shard.Open(dsn)
	default:
		st, err = store.Open(dsn)
	}
	if err != nil {
		return err
	}
	defer st.Close()

	tasks := make([]store.IngestTask, runs)
	for r := 0; r < runs; r++ {
		r := r
		tasks[r] = store.IngestTask{
			RunID:    fmt.Sprintf("%s-run%03d", w.Name, r),
			Workflow: w.Name,
			Emit: func(col trace.Collector) error {
				_, err := eng.Run(w, inputs(r), col)
				return err
			},
		}
	}
	start := time.Now()
	if err := st.Ingest(ctx, tasks, store.IngestOptions{Parallelism: parallel, BatchRows: batch}); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rows, err := st.TotalRecords("")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingested %d runs (%d records) in %v: %.0f rows/sec (parallel=%d, batch=%d)\n",
		runs, rows, elapsed.Round(time.Millisecond), float64(rows)/elapsed.Seconds(), parallel, batch)
	return nil
}
