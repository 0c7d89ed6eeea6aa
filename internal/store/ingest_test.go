package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
)

// makeTraces executes the testbed and GK workflows a few times and returns
// the recorded traces, so both ingest paths load byte-identical inputs.
func makeTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var traces []*trace.Trace

	tbWF := gen.Testbed(10)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	for r := 0; r < 4; r++ {
		_, tr, err := eng.RunTrace(tbWF, fmt.Sprintf("tb%03d", r), gen.TestbedInputs(10))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}

	gkWF := gen.GenesToKegg()
	gkEng := engine.New(gen.Registry())
	for r := 0; r < 3; r++ {
		_, tr, err := gkEng.RunTrace(gkWF, fmt.Sprintf("gk%03d", r), gen.GKInputs(3+r, 4))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	return traces
}

// TestIngestEquivalence loads the same traces sequentially at BatchRows=1
// (a flush after every event) and batched+parallel, and checks the two
// stores answer identically: integrity verification
// passes, record counts match, reconstructed traces match, and focused and
// unfocused INDEXPROJ lineage queries return equal results. Run under
// -race this also exercises the concurrent ingest path for data races.
func TestIngestEquivalence(t *testing.T) {
	traces := makeTraces(t)

	perRow, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer perRow.Close()
	if err := perRow.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 1, BatchRows: 1}); err != nil {
		t.Fatal(err)
	}

	batched, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	if err := batched.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 4, BatchRows: 64}); err != nil {
		t.Fatal(err)
	}

	tbWF := gen.Testbed(10)
	gkWF := gen.GenesToKegg()

	for _, tr := range traces {
		in1, out1, xf1, err := perRow.RecordCounts(tr.RunID)
		if err != nil {
			t.Fatal(err)
		}
		in2, out2, xf2, err := batched.RecordCounts(tr.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if in1 != in2 || out1 != out2 || xf1 != xf2 {
			t.Fatalf("run %s: counts per-row (%d,%d,%d) != batched (%d,%d,%d)",
				tr.RunID, in1, out1, xf1, in2, out2, xf2)
		}

		wf := tbWF
		if tr.Workflow == gkWF.Name {
			wf = gkWF
		}
		for name, s := range map[string]*store.Store{"per-row": perRow, "batched": batched} {
			rep, err := s.Verify(tr.RunID, wf)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("run %s (%s ingest): verify failed:\n%s", tr.RunID, name, rep)
			}
		}

		t1, err := perRow.LoadTrace(tr.RunID)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := batched.LoadTrace(tr.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("run %s: reconstructed traces differ between ingest modes", tr.RunID)
		}
	}

	// Lineage queries must agree between the two stores.
	tbFocus := lineage.NewFocus(gen.ListGenName)
	tbUnfocused := lineage.NewFocus()
	for _, p := range tbWF.Processors {
		tbUnfocused[p.Name] = true
	}
	gkFocus := lineage.NewFocus("get_pathways_by_genes")

	ip1, err := lineage.NewIndexProj(perRow, tbWF)
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := lineage.NewIndexProj(batched, tbWF)
	if err != nil {
		t.Fatal(err)
	}
	for _, focus := range []lineage.Focus{tbFocus, tbUnfocused} {
		r1, err := ip1.Lineage("tb001", gen.FinalName, "product", value.Ix(5, 5), focus)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ip2.Lineage("tb001", gen.FinalName, "product", value.Ix(5, 5), focus)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Equal(r2) {
			t.Fatalf("testbed lineage (|focus|=%d) differs between ingest modes", len(focus))
		}
	}

	gp1, err := lineage.NewIndexProj(perRow, gkWF)
	if err != nil {
		t.Fatal(err)
	}
	gp2, err := lineage.NewIndexProj(batched, gkWF)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := gp1.Lineage("gk001", trace.WorkflowProc, "paths_per_gene", value.Ix(0, 0), gkFocus)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gp2.Lineage("gk001", trace.WorkflowProc, "paths_per_gene", value.Ix(0, 0), gkFocus)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("GK lineage differs between ingest modes")
	}
}

// TestBufferedWriterFlushBoundaries checks the run writer across batch
// sizes that do and do not divide the row count, including BatchRows 1
// (flush per event) and a threshold larger than the whole run (single final
// flush on Close): every store loaded from one trace — by StoreTrace, by
// IngestTraces at each batch size, and by a TailIngest feed — holds the same
// record counts and reconstructs the same trace.
func TestBufferedWriterFlushBoundaries(t *testing.T) {
	tbWF := gen.Testbed(5)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	_, tr, err := eng.RunTrace(tbWF, "ref", gen.TestbedInputs(7))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.StoreTrace(tr); err != nil {
		t.Fatal(err)
	}
	in0, out0, xf0, err := ref.RecordCounts("ref")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.LoadTrace("ref")
	if err != nil {
		t.Fatal(err)
	}

	loads := map[string]func(*store.Store) error{
		"tail": func(s *store.Store) error {
			ch := make(chan trace.Event)
			go func() {
				defer close(ch)
				for _, ev := range tr.Events() {
					ch <- ev
				}
			}()
			_, err := s.TailIngest(context.Background(), ch, store.TailOptions{})
			return err
		},
	}
	for _, batch := range []int{1, 3, 64, 1 << 20} {
		batch := batch
		loads[fmt.Sprintf("batch=%d", batch)] = func(s *store.Store) error {
			return s.IngestTraces(context.Background(), []*trace.Trace{tr}, store.IngestOptions{BatchRows: batch})
		}
	}
	for name, load := range loads {
		s, err := store.OpenMemory()
		if err != nil {
			t.Fatal(err)
		}
		if err := load(s); err != nil {
			t.Fatal(err)
		}
		in, out, xf, err := s.RecordCounts("ref")
		if err != nil {
			t.Fatal(err)
		}
		if in != in0 || out != out0 || xf != xf0 {
			t.Fatalf("%s: counts (%d,%d,%d) != StoreTrace (%d,%d,%d)",
				name, in, out, xf, in0, out0, xf0)
		}
		rep, err := s.Verify("ref", tbWF)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: verify failed:\n%s", name, rep)
		}
		got, err := s.LoadTrace("ref")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reconstructed trace differs from StoreTrace's", name)
		}
		s.Close()
	}
}

// TestIngestDuplicateRun checks that a duplicate run ID fails the ingest
// without corrupting the store's existing data.
func TestIngestDuplicateRun(t *testing.T) {
	tbWF := gen.Testbed(5)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	_, tr, err := eng.RunTrace(tbWF, "dup", gen.TestbedInputs(5))
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.IngestTraces(context.Background(), []*trace.Trace{tr}, store.IngestOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestTraces(context.Background(), []*trace.Trace{tr}, store.IngestOptions{Parallelism: 2}); err == nil {
		t.Fatal("re-ingesting an existing run succeeded; want an error")
	}
	rep, err := s.Verify("dup", tbWF)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store corrupted after duplicate-run failure:\n%s", rep)
	}
}

// TestIngestCheckpointBounded loads the same traces into two durable stores,
// one checkpointing after every completed run and one never, and checks that
// (a) the checkpoint counter advanced once per boundary crossed, (b) the
// checkpointing store's WAL stays bounded (far smaller than the full-load
// WAL), and (c) a reopen of the checkpointed store recovers every run intact.
func TestIngestCheckpointBounded(t *testing.T) {
	traces := makeTraces(t)

	open := func(dir string) *store.Store {
		t.Helper()
		s, err := store.Open("durable:" + dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	walSize := func(dir string) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	plainDir, ckptDir := t.TempDir(), t.TempDir()

	plain := open(plainDir)
	if err := plain.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	before := obs.Default.Snapshot()
	ckpt := open(ckptDir)
	if err := ckpt.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 2, CheckpointEveryRuns: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)
	if got, want := delta.Counter("reldb.checkpoints"), int64(len(traces)); got != want {
		t.Fatalf("reldb.checkpoints delta = %d, want %d (one per completed run)", got, want)
	}

	// Every boundary truncated the log, so the checkpointed WAL holds at most
	// one run's events; the plain WAL holds all of them.
	if cw, pw := walSize(ckptDir), walSize(plainDir); cw*2 >= pw {
		t.Fatalf("checkpointed WAL not bounded: %d bytes vs %d unchecked", cw, pw)
	}

	back := open(ckptDir)
	defer back.Close()
	for _, tr := range traces {
		ok, err := back.HasRun(tr.RunID)
		if err != nil || !ok {
			t.Fatalf("run %q lost after checkpointed ingest: ok=%v err=%v", tr.RunID, ok, err)
		}
		got, err := back.LoadTrace(tr.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if got.RunID != tr.RunID || len(got.Xforms) != len(tr.Xforms) || len(got.Xfers) != len(tr.Xfers) {
			t.Fatalf("run %q: reloaded %d xforms/%d xfers, want %d/%d",
				tr.RunID, len(got.Xforms), len(got.Xfers), len(tr.Xforms), len(tr.Xfers))
		}
	}

	// A memory-backed store ignores the option (no log to truncate).
	mem, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.IngestTraces(context.Background(), traces, store.IngestOptions{CheckpointEveryRuns: 2}); err != nil {
		t.Fatalf("CheckpointEveryRuns on a memory store: %v", err)
	}
}
