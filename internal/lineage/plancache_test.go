package lineage

import (
	"context"
	"errors"
	"testing"

	"repro/internal/value"
)

// countingTable is the default template table, counting Get hits and
// misses: one test's counts, unlike the process-wide obs counters.
type countingTable struct {
	*planTable
	hits, misses int
}

func (c *countingTable) Get(key string) (*CompiledPlan, bool) {
	p, ok := c.planTable.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return p, ok
}

// TestPlanCacheOneMissPerShape pins the table key exactly: every index of
// one length shares one template under every focus, so 2 500 fresh indices
// under 50 foci cost one compilation, and only a new |q| costs another.
func TestPlanCacheOneMissPerShape(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	table := &countingTable{planTable: newPlanTable()}
	ip.UsePlanCache(table, "")
	names := []string{"P", "Q", "R", "nope"}
	foci := make([]Focus, 50)
	for i := range foci {
		foci[i] = NewFocus()
		for k, name := range names {
			if i>>k&1 == 1 {
				foci[i][name] = true
			}
		}
		if i >= 32 {
			foci[i]["Q"] = false
		}
	}
	for i := 0; i < 2500; i++ {
		if _, err := ip.Compile("P", "Y", value.Ix(i/50, i%50), foci[i%len(foci)]); err != nil {
			t.Fatal(err)
		}
	}
	if table.misses != 1 || table.hits != 2499 {
		t.Fatalf("2500 indices of one shape under 50 foci: %d misses, %d hits; want 1, 2499", table.misses, table.hits)
	}
	if _, err := ip.Compile("P", "Y", value.Ix(7), foci[3]); err != nil {
		t.Fatal(err)
	}
	if table.misses != 2 || table.len() != 2 {
		t.Errorf("new |q|: misses = %d, len = %d; want 2, 2", table.misses, table.len())
	}
}

// TestPublicExecutorsRefuseTemplates: a template taken out of the table
// has no query index to resolve against, so the public executors
// return an error instead of running (or panicking on) it, and still run
// the concrete plan Compile returns for the same query.
func TestPublicExecutorsRefuseTemplates(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	idx := value.Ix(1, 0)
	plan, err := ip.Compile("P", "Y", idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, ok := ip.cache.Get(planKey("P", "Y", len(idx)))
	if !ok {
		t.Fatal("Compile cached no template")
	}
	if _, err := ip.Execute(tmpl, "r1"); !errors.Is(err, errTemplatePlan) {
		t.Errorf("Execute(template) = %v, want errTemplatePlan", err)
	}
	if _, err := ip.ExecuteMultiRun(context.Background(), tmpl, []string{"r1"}, MultiRunOptions{}); !errors.Is(err, errTemplatePlan) {
		t.Errorf("ExecuteMultiRun(template) = %v, want errTemplatePlan", err)
	}
	if _, err := ip.Execute(plan, "r1"); err != nil {
		t.Errorf("Execute(Compile's plan): %v", err)
	}
	if _, err := ip.ExecuteMultiRun(context.Background(), plan, []string{"r1"}, MultiRunOptions{}); err != nil {
		t.Errorf("ExecuteMultiRun(Compile's plan): %v", err)
	}
}

// TestFocusSelectionAllocs: filtering a template to a focus allocates
// nothing for one processor or for every processor of the template, and one
// list otherwise.
func TestFocusSelectionAllocs(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	tmpl, err := ip.template("P", "Y", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		focus  Focus
		allocs float64
	}{
		{NewFocus("Q"), 0},
		{NewFocus("P", "Q", "R"), 0},
		{NewFocus("P", "Q", "R", "nope"), 0},
		{NewFocus("Q", "R"), 1},
	} {
		if n := testing.AllocsPerRun(100, func() { tmpl.selected(c.focus) }); n != c.allocs {
			t.Errorf("focus %v: %v allocations, want %v", c.focus.Names(), n, c.allocs)
		}
	}
}
