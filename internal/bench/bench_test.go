package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

var quick = Options{Quick: true, Queries: 2}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:      "x",
		Title:   "demo",
		Caption: "line1\nline2",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := r.String()
	if !strings.Contains(s, "== x: demo ==") || !strings.Contains(s, "line2") {
		t.Errorf("String = %q", s)
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestBestOf(t *testing.T) {
	calls := 0
	d, err := bestOf(3, func() error { calls++; time.Sleep(time.Microsecond); return nil })
	if err != nil || calls != 3 || d <= 0 {
		t.Errorf("bestOf = %v, calls %d, err %v", d, calls, err)
	}
}

func TestTable1Quick(t *testing.T) {
	rep, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] != row[3] {
			t.Errorf("measured %s != predicted %s for d=%s l=%s", row[2], row[3], row[0], row[1])
		}
	}
	// The (10,10) configuration lines up with the paper's order of magnitude.
	if rep.Rows[0][4] != "626" {
		t.Errorf("paper reference = %s", rep.Rows[0][4])
	}
	measured, _ := strconv.Atoi(rep.Rows[0][2])
	if measured < 300 || measured > 1500 {
		t.Errorf("measured (10,10) = %d, expected same order as paper's 626", measured)
	}
}

func TestFig4Quick(t *testing.T) {
	rep, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	// 4 query configs x 3 run counts.
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// t1 is constant per config while runs grow.
	if rep.Rows[0][2] != rep.Rows[1][2] {
		t.Errorf("t1 varies across run counts: %v vs %v", rep.Rows[0], rep.Rows[1])
	}
}

func TestFig6Quick(t *testing.T) {
	rep, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Records strictly accumulate.
	prev := 0
	for _, row := range rep.Rows {
		n, _ := strconv.Atoi(row[1])
		if n <= prev {
			t.Errorf("records did not grow: %v", rep.Rows)
		}
		prev = n
	}
}

func TestFig7Quick(t *testing.T) {
	rep, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig8Quick(t *testing.T) {
	rep, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Graph nodes follow 2l+2.
	if rep.Rows[0][1] != "12" {
		t.Errorf("nodes for l=5 = %s, want 12", rep.Rows[0][1])
	}
}

func TestFig9Quick(t *testing.T) {
	rep, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig10Quick(t *testing.T) {
	rep, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Focus sizes do not shrink along the sweep.
	prev := 0
	for _, row := range rep.Rows {
		k, _ := strconv.Atoi(row[0])
		if k < prev {
			t.Errorf("focus sizes shrink: %v", rep.Rows)
		}
		prev = k
	}
}

func TestFig4ColQuick(t *testing.T) {
	rep, err := Fig4Col(quick)
	if err != nil {
		t.Fatal(err)
	}
	// 2 queries x 2 topologies x 2 modes; Fig4Col itself fails if the
	// colscan answer diverges from the row path.
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d: %v", len(rep.Rows), rep.Rows)
	}
	for _, row := range rep.Rows {
		segs, falls := row[7], row[10]
		switch row[4] {
		case "rows":
			if segs != "0" {
				t.Errorf("row path scanned %s segments: %v", segs, row)
			}
		case "colscan":
			if segs == "0" {
				t.Errorf("colscan scanned no segments: %v", row)
			}
			if falls != "0" {
				t.Errorf("colscan fell back on %s runs after a checkpoint: %v", falls, row)
			}
		default:
			t.Errorf("unexpected mode %q", row[4])
		}
	}
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	reps, err := All(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 14 {
		t.Fatalf("reports = %d", len(reps))
	}
	ids := []string{"fig4", "fig4par", "fig4shard", "fig4col", "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "ingest", "serve", "failover", "stream"}
	for i, rep := range reps {
		if rep.ID != ids[i] {
			t.Errorf("report %d = %s, want %s", i, rep.ID, ids[i])
		}
		if len(rep.Rows) == 0 {
			t.Errorf("report %s is empty", rep.ID)
		}
	}
}

func TestIngestQuick(t *testing.T) {
	rep, err := Ingest(quick)
	if err != nil {
		t.Fatal(err)
	}
	// BatchRows=1, batched P=1, batched P=4.
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Every mode stores the same number of records, and the baseline's
	// speedup column is exactly 1.00x.
	for _, row := range rep.Rows {
		if row[2] != rep.Rows[0][2] {
			t.Errorf("record counts differ across modes: %v", rep.Rows)
		}
	}
	if rep.Rows[0][5] != "1.00x" {
		t.Errorf("baseline speedup = %s, want 1.00x", rep.Rows[0][5])
	}
}

func TestGenerateTestbedTraces(t *testing.T) {
	traces, err := GenerateTestbedTraces(5, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d", len(traces))
	}
	for i, tr := range traces {
		if tr.RunID == "" || len(tr.Xforms) == 0 || len(tr.Xfers) == 0 {
			t.Errorf("trace %d is empty: %+v", i, tr.RunID)
		}
	}
}

// TestFigServeQuick smoke-runs the serving benchmark: one row per
// (shards, offered load) cell, every row with completed requests and
// ordered quantiles.
func TestFigServeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("drives open-loop HTTP load for seconds")
	}
	rep, err := FigServe(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 { // {1,4} shards x 3 offered loads
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		ok, _ := strconv.Atoi(row[3])
		if ok == 0 {
			t.Errorf("cell %v completed no requests", row)
		}
		p50, _ := strconv.ParseFloat(row[8], 64)
		p999, _ := strconv.ParseFloat(row[10], 64)
		if p50 <= 0 || p999 < p50 {
			t.Errorf("cell %v has inconsistent quantiles", row)
		}
	}
}

func TestFailoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timed availability windows")
	}
	rep, err := Failover(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // {1,2} replicas x {healthy,kill}
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	cell := func(replicas, phase string) []string {
		for _, row := range rep.Rows {
			if row[0] == replicas && row[1] == phase {
				return row
			}
		}
		t.Fatalf("no cell for r=%s phase=%s in %v", replicas, phase, rep.Rows)
		return nil
	}
	for _, r := range []string{"1", "2"} {
		avail, _ := strconv.ParseFloat(cell(r, "healthy")[5], 64)
		if avail < 99 {
			t.Errorf("healthy availability at r=%s is %.1f%%, want >= 99%%", r, avail)
		}
	}
	// The acceptance contract: the unreplicated store loses every query in
	// the kill window; the replicated one keeps answering through failover.
	if avail, _ := strconv.ParseFloat(cell("1", "kill")[5], 64); avail != 0 {
		t.Errorf("kill-window availability at r=1 is %.1f%%, want 0%%", avail)
	}
	killR2 := cell("2", "kill")
	if avail, _ := strconv.ParseFloat(killR2[5], 64); avail < 99 {
		t.Errorf("kill-window availability at r=2 is %.1f%%, want >= 99%%", avail)
	}
	if failovers, _ := strconv.Atoi(killR2[8]); failovers == 0 {
		t.Errorf("kill window at r=2 recorded no failovers: %v", killR2)
	}
}

func TestStreamQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timed ingest windows")
	}
	rep, err := Stream(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // {row,colscan} x {idle,tail-ingest}
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		n, _ := strconv.Atoi(row[2])
		if n == 0 {
			t.Errorf("cell %s/%s completed no queries", row[0], row[1])
		}
		applied, _ := strconv.Atoi(row[6])
		if row[1] == "tail-ingest" && applied == 0 {
			t.Errorf("cell %s/%s streamed no events", row[0], row[1])
		}
		if row[1] == "idle" && applied != 0 {
			t.Errorf("idle cell %s recorded ingest: %v", row[0], row)
		}
	}
}
