package lineage

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/value"
)

// This file holds the differential property test of the observability PR:
// on randomized workflows and multi-run traces, the sequential NI and
// INDEXPROJ executors and the parallel multi-run executor must return
// identical lineage sets, and the obs counters recorded along the way must
// satisfy their structural invariants. Run under -race it also exercises
// the concurrency of the metric hot paths.

// diffTrials returns the trial count, overridable via DIFF_TRIALS for the
// nightly CI job which runs a much larger seed sweep.
func diffTrials(def int) int {
	if s := os.Getenv("DIFF_TRIALS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func TestDifferentialExecutorsAndCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized differential test")
	}
	trials := diffTrials(25)
	rng := rand.New(rand.NewSource(20260806))
	reg := propertyRegistry()

	for trial := 0; trial < trials; trial++ {
		w := buildRandomWorkflow(rng, fmt.Sprintf("dw%d", trial), 3+rng.Intn(6), true)
		if err := w.Validate(); err != nil {
			t.Fatalf("trial %d: invalid workflow: %v", trial, err)
		}
		s, err := store.OpenMemory()
		if err != nil {
			t.Fatal(err)
		}
		// Every run executes on the same input values: NI answers
		// extensionally per run, so the strict three-way equality needs
		// every run to contain the queried index — i.e. identical input
		// shapes. (Shape-divergent runs are where INDEXPROJ deliberately
		// over-approximates; see TestEmptyCollectionsSubset.)
		inputs := map[string]value.Value{}
		for _, in := range w.Inputs {
			inputs[in.Name] = randomInput(rng, in.DeclaredDepth, in.Name, false)
		}
		nRuns := 2 + rng.Intn(3)
		runIDs := make([]string, nRuns)
		for r := 0; r < nRuns; r++ {
			runIDs[r] = fmt.Sprintf("run%d", r)
			_, tr, err := engine.New(reg).RunTrace(w, runIDs[r], inputs)
			if err != nil {
				t.Fatalf("trial %d run %d: engine: %v", trial, r, err)
			}
			if err := s.StoreTrace(tr); err != nil {
				t.Fatal(err)
			}
		}

		// Column segments for every run, so ColScanOn below really scans them.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ni := NewNaive(s)
		ip, err := NewIndexProj(s, w)
		if err != nil {
			t.Fatal(err)
		}
		// Query the first workflow output at a random recorded granularity.
		tr0, err := s.LoadTrace(runIDs[0])
		if err != nil {
			t.Fatal(err)
		}
		type q struct {
			proc, port string
			idx        value.Index
		}
		var queries []q
		for _, ev := range tr0.Xforms {
			for _, out := range ev.Outputs {
				queries = append(queries, q{out.Proc, out.Port, out.Index})
			}
		}
		if len(queries) == 0 {
			s.Close()
			continue
		}
		procSet := map[string]bool{}
		for _, ev := range tr0.Xforms {
			procSet[ev.Proc] = true
		}
		var procs []string
		for p := range procSet {
			procs = append(procs, p)
		}

		for probe := 0; probe < 4; probe++ {
			query := queries[rng.Intn(len(queries))]
			focus := NewFocus()
			for _, p := range procs {
				if rng.Intn(3) == 0 {
					focus[p] = true
				}
			}

			s0 := obs.Default.Snapshot()
			a, err := ni.LineageMultiRun(runIDs, query.proc, query.port, query.idx, focus)
			if err != nil {
				t.Fatalf("trial %d: NI multi-run: %v", trial, err)
			}
			// bindingsOf runs one INDEXPROJ execution and returns, with its
			// answer, how many bindings it counted.
			bindingsOf := func(run func() (*Result, error)) (*Result, int64, error) {
				before := obs.Default.Snapshot()
				res, err := run()
				return res, obs.Default.Snapshot().Sub(before).Counter("lineage.indexproj.bindings"), err
			}
			b, seqBindings, err := bindingsOf(func() (*Result, error) {
				return ip.LineageMultiRun(runIDs, query.proc, query.port, query.idx, focus)
			})
			if err != nil {
				t.Fatalf("trial %d: INDEXPROJ multi-run: %v\nquery %s:%s%v focus %v\nworkflow: %s",
					trial, err, query.proc, query.port, query.idx, focus.Names(), mustJSON(w))
			}
			opt := MultiRunOptions{
				Parallelism: 1 + rng.Intn(4),
				BatchSize:   rng.Intn(3), // 0 = default, 1 = per-run, 2 = pairs
			}
			c, _, err := bindingsOf(func() (*Result, error) {
				return ip.LineageMultiRunParallel(context.Background(), runIDs, query.proc, query.port, query.idx, focus, opt)
			})
			if err != nil {
				t.Fatalf("trial %d: parallel multi-run: %v", trial, err)
			}
			// The bindings count belongs to the query, not to how it was run:
			// per-run, batched and column-scan chunks, pooled or in line.
			for _, how := range []MultiRunOptions{
				opt,
				{Parallelism: 1, BatchSize: 1, ColScan: ColScanOff},
				{Parallelism: 3, BatchSize: 2, ColScan: ColScanOff},
				{Parallelism: 2, ColScan: ColScanOn},
			} {
				res, got, err := bindingsOf(func() (*Result, error) {
					return ip.LineageMultiRunParallel(context.Background(), runIDs, query.proc, query.port, query.idx, focus, how)
				})
				if err != nil {
					t.Fatalf("trial %d: parallel(%+v): %v", trial, how, err)
				}
				if got != seqBindings || !res.Equal(b) {
					t.Fatalf("trial %d: parallel(%+v) counted %d bindings (same answer: %v), sequential counted %d\nquery %s:%s%v focus %v",
						trial, how, got, res.Equal(b), seqBindings, query.proc, query.port, query.idx, focus.Names())
				}
			}
			if !a.Equal(b) {
				t.Fatalf("trial %d: NI %v != INDEXPROJ %v\nquery %s:%s%v focus %v\nworkflow: %s",
					trial, a, b, query.proc, query.port, query.idx, focus.Names(), mustJSON(w))
			}
			if !a.Equal(c) {
				t.Fatalf("trial %d: NI %v != parallel(%+v) %v\nquery %s:%s%v focus %v\nworkflow: %s",
					trial, a, c, opt, query.proc, query.port, query.idx, focus.Names(), mustJSON(w))
			}

			// Counter invariants over the three queries just issued.
			d := obs.Default.Snapshot().Sub(s0)
			probes := d.Counter("store.probes")
			batches := d.Counter("store.probe_batches")
			if probes < batches {
				t.Fatalf("trial %d: store.probes (%d) < store.probe_batches (%d): every batch must issue at least one probe",
					trial, probes, batches)
			}
			if got := d.Counter("lineage.indexproj.queries"); got < 2 {
				t.Fatalf("trial %d: expected >=2 indexproj query completions, counters saw %d", trial, got)
			}
			if got := d.Counter("lineage.ni.queries"); got < 1 {
				t.Fatalf("trial %d: expected >=1 NI query completion, counters saw %d", trial, got)
			}
		}
		s.Close()
	}

	// Span balance: after all queries completed, every span that started
	// must have ended — holds globally regardless of parallelism.
	if started, ended := obs.SpansStarted(), obs.SpansEnded(); started != ended {
		t.Fatalf("span imbalance after differential trials: started=%d ended=%d", started, ended)
	}
}

// TestObsStageTimingInvariant checks t1 + t2 <= total on the sequential
// INDEXPROJ path: plan compilation and probe execution happen inside the
// query span, so their recorded durations cannot exceed the query's. (The
// parallel executor is excluded — its probe spans overlap in wall time.)
func TestObsStageTimingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reg := propertyRegistry()
	w := buildRandomWorkflow(rng, "stw", 6, false)
	inputs := map[string]value.Value{}
	for _, in := range w.Inputs {
		inputs[in.Name] = randomInput(rng, in.DeclaredDepth, in.Name, false)
	}
	_, tr, err := engine.New(reg).RunTrace(w, "run", inputs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StoreTrace(tr); err != nil {
		t.Fatal(err)
	}
	ip, err := NewIndexProj(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Xforms) == 0 {
		t.Skip("trace recorded no transformations")
	}
	out := tr.Xforms[0].Outputs[0]

	s0 := obs.Default.Snapshot()
	for i := 0; i < 20; i++ {
		if _, err := ip.Lineage("run", out.Proc, out.Port, out.Index, NewFocus()); err != nil {
			t.Fatal(err)
		}
	}
	d := obs.Default.Snapshot().Sub(s0)
	t1 := d.HistSum("lineage.indexproj.plan_ns")
	t2 := d.HistSum("lineage.indexproj.probe_ns")
	total := d.HistSum("lineage.indexproj.query_ns")
	if t1+t2 > total {
		t.Fatalf("stage times exceed total on sequential path: t1=%dns + t2=%dns > total=%dns", t1, t2, total)
	}
	if total == 0 {
		t.Fatal("query_ns recorded nothing across 20 queries")
	}
}
