package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func quickConfig(t *testing.T, seed int64) Config {
	dir := t.TempDir()
	return Config{Seed: seed, Seconds: 0.2, Warm: 0.05, Scale: Quick, NProc: runtime.NumCPU(),
		Workdir: dir, OutDir: filepath.Join(dir, "out")}
}

// checkMetrics asserts that a result carries exactly the catalogued metrics,
// each with its unit and a finite value, and that nothing failed.
func checkMetrics(t *testing.T, r *Result, defs []MetricDef, nonZero bool) {
	t.Helper()
	if r.Failed != 0 || r.FailRatio != 0 || r.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d", r.Workload, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d catalogued", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", r.Workload, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", r.Workload, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", r.Workload, d.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, v.Value)
		}
	}
}

// TestQuick runs every workload at the quick scale, untraced and traced.
func TestQuick(t *testing.T) {
	ctx := context.Background()
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			r, err := RunUntraced(ctx, w, quickConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, EndToEnd, true)

			cfg := quickConfig(t, 1)
			a, err := RunTraced(ctx, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, a, PerLayer, false)
			b, err := RunTraced(ctx, w, quickConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if a.StreamHash != b.StreamHash {
				t.Errorf("same seed, stream hashes %s and %s", a.StreamHash, b.StreamHash)
			}
			// Counts are taken over a fixed number of traced queries from a
			// fixed cache state: they repeat exactly.
			for _, d := range PerLayer {
				if d.Unit == "count" && d.Name != "store.tail.applied_events" && !strings.Contains(d.Name, "allocs") &&
					a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
					t.Errorf("%s: %v then %v with one seed", d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
				}
			}
			if _, other := Streams(w, 2, Quick, 1); other == a.StreamHash {
				t.Errorf("seeds 1 and 2 give the same stream %s", other)
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			switch w.Name {
			case "focused_point":
				if got := a.Metrics["lineage.plancache.hit_ratio"].Value; got != 1 {
					t.Errorf("plan-cache hit ratio %v on the all-cached workload", got)
				}
			case "trace_walk":
				if got := a.Metrics["lineage.plancache.hit_ratio"].Value; got >= 1 {
					t.Errorf("plan-cache hit ratio %v: no compilation measured", got)
				}
			case "multirun_scan":
				if a.Metrics["colscan.segments_scanned_per_query"].Value == 0 || a.Metrics["colscan.fallbacks_per_query"].Value == 0 {
					t.Errorf("multirun_scan must reach both the column scan and its row fallback")
				}
			}
			if got := a.Metrics["reldb.full_scans"].Value; got != 0 {
				t.Errorf("%v full table scans", got)
			}
		})
	}
}

// TestContractFile keeps BENCHMARK.json and the program's tables identical.
func TestContractFile(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from `-list -json`; regenerate it")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		var s Summary
		for _, v := range p50 {
			m := map[string]Value{}
			for _, d := range EndToEnd {
				m[d.Name] = Value{100, d.Unit}
			}
			m["query_p50_us"] = Value{v, "us"}
			s.Results = append(s.Results, &Result{Workload: "focused_point", Attempted: 1, Metrics: m})
		}
		path := filepath.Join(dir, name)
		if err := writeSummary(path, &s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99, 100})
	var out bytes.Buffer
	if err := Compare(&out, base, write("same.json", []float64{102, 100, 101, 103})); err != nil {
		t.Errorf("within bound: %v\n%s", err, out.String())
	}
	if err := Compare(&out, base, write("slow.json", []float64{120, 121, 119, 120})); err == nil {
		t.Errorf("20%% slower p50 passed")
	}
	out.Reset()
	if err := Compare(&out, base, write("noisy.json", []float64{60, 100, 140, 180})); err != nil || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("spread wider than the bound must read unresolved, got %v\n%s", err, out.String())
	}
}
