package bench

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workflow"
)

// Options scales the experiments. The zero value reproduces the paper's
// configuration space; Quick shrinks every grid for smoke runs (used by the
// test suite and `benchrunner -quick`).
type Options struct {
	Queries int // identical queries per measurement (default 5, paper's best-of-5)
	Quick   bool
	// Ctx, when set, bounds every experiment: cancellation (Ctrl-C, a
	// -timeout) aborts the in-flight ingest or query executor cleanly.
	Ctx context.Context
}

// ctx returns the experiment context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) queries() int {
	if o.Queries > 0 {
		return o.Queries
	}
	return 5
}

// grid returns the paper grid or its quick-mode reduction.
func (o Options) grid(full, quick []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// TestbedEnv is a populated provenance database for one testbed
// configuration, exposed for the root benchmark suite.
type TestbedEnv struct {
	WF     *workflow.Workflow
	Store  *store.Store
	RunIDs []string
	L, D   int
}

func (env *TestbedEnv) Close() { env.Store.Close() }

// PopulateTestbed generates Testbed(l), executes it `runs` times with list
// size d, and stores every trace.
func PopulateTestbed(l, d, runs int) (*TestbedEnv, error) {
	wf := gen.Testbed(l)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	st, err := store.OpenMemory()
	if err != nil {
		return nil, err
	}
	env := &TestbedEnv{WF: wf, Store: st, L: l, D: d}
	for r := 0; r < runs; r++ {
		runID := fmt.Sprintf("run%03d", r)
		if err := storeRun(st, eng, runID, wf, gen.TestbedInputs(d)); err != nil {
			st.Close()
			return nil, err
		}
		env.RunIDs = append(env.RunIDs, runID)
	}
	return env, nil
}

// storeRun executes wf on inputs and stores its trace as run runID.
func storeRun(st *store.Store, eng *engine.Engine, runID string, wf *workflow.Workflow, inputs map[string]value.Value) error {
	w, err := st.NewRunWriter(context.Background(), runID, wf.Name, 0)
	if err != nil {
		return err
	}
	if _, err := eng.Run(wf, inputs, w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// QueryIndex is the element the testbed lineage queries target: a middle
// element of the final d×d product.
func (env *TestbedEnv) QueryIndex() value.Index {
	return value.Ix(env.D/2, env.D/2)
}

// FocusedSet is the paper's focused query target {LISTGEN_1}.
func FocusedSet() lineage.Focus { return lineage.NewFocus(gen.ListGenName) }

// UnfocusedSet marks every processor interesting — the fully unfocused case
// where INDEXPROJ degenerates towards NI.
func (env *TestbedEnv) UnfocusedSet() lineage.Focus {
	f := lineage.NewFocus()
	for _, p := range env.WF.Processors {
		f[p.Name] = true
	}
	return f
}

// PartialFocus returns a focus containing the first k processors of the two
// chains (alternating), for the partially-unfocused sweep of Fig. 10.
func (env *TestbedEnv) PartialFocus(k int) lineage.Focus {
	f := lineage.NewFocus(gen.ListGenName)
	for i := 1; len(f) < k && i <= env.L; i++ {
		f[fmt.Sprintf("A_%03d", i)] = true
		if len(f) < k {
			f[fmt.Sprintf("B_%03d", i)] = true
		}
	}
	return f
}

// NaiveQuery runs the NI query once.
func (env *TestbedEnv) NaiveQuery(runID string, focus lineage.Focus) error {
	ni := lineage.NewNaive(env.Store)
	_, err := ni.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), focus)
	return err
}

// GKPDEnv holds populated GK and PD databases for Fig. 4.
type GKPDEnv struct {
	Store  *store.Store
	GK     *workflow.Workflow
	PD     *workflow.Workflow
	GKRuns []string
	PDRuns []string
}

func (env *GKPDEnv) Close() { env.Store.Close() }

// PopulateGKPD executes `runs` runs of both real-workflow reconstructions.
func PopulateGKPD(runs int) (*GKPDEnv, error) {
	st, err := store.OpenMemory()
	if err != nil {
		return nil, err
	}
	reg := gen.Registry()
	eng := engine.New(reg)
	env := &GKPDEnv{Store: st, GK: gen.GenesToKegg(), PD: gen.ProteinDiscovery()}
	for r := 0; r < runs; r++ {
		gkID := fmt.Sprintf("gk%03d", r)
		// Sweep the input size across runs, as a parameter sweep would.
		if err := storeRun(st, eng, gkID, env.GK, gen.GKInputs(3+r%3, 4)); err != nil {
			st.Close()
			return nil, err
		}
		env.GKRuns = append(env.GKRuns, gkID)

		pdID := fmt.Sprintf("pd%03d", r)
		if err := storeRun(st, eng, pdID, env.PD, gen.PDInputs(fmt.Sprintf("query sweep %d", r), 8)); err != nil {
			st.Close()
			return nil, err
		}
		env.PDRuns = append(env.PDRuns, pdID)
	}
	return env, nil
}

// AllProcs lists every processor name of a workflow (the unfocused set).
func AllProcs(w *workflow.Workflow) lineage.Focus {
	f := lineage.NewFocus()
	for _, p := range w.Processors {
		f[p.Name] = true
	}
	return f
}
