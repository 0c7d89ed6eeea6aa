package main

import (
	"fmt"
	"io"
)

// Markdown prints the "where the time goes" table of a traced summary: per
// workload, the median time one query spends at each seam from the engine
// outwards, with each layer's self time (span minus child spans) beside it.
// All values are µs per query, medians over the traced queries that reached
// the seam, so a row's self times need not add up exactly.
func Markdown(w io.Writer, s *Summary) {
	cols := []struct{ head, total, self string }{
		{"reldb select", "reldb.select_us", ""},
		{"sqlike query", "sqlike.query_us", "sqlike.self_us"},
		{"store probe", "store.probe_us", "store.self_us"},
		{"store batch+values", "store.probe_batch_us", "store.values_batch_us"},
		{"store colscan", "store.colscan_us", "colstore.scan_us"},
		{"store trace read", "store.trace_read_us", ""},
		{"lineage plan hit (miss)", "lineage.plan_hit_us", "lineage.plan_miss_us"},
		{"lineage execute", "lineage.execute_us", "lineage.self_us"},
		{"core query", "core.query_us", "core.self_us"},
		{"render", "queryfmt.render_us", ""},
		{"server handle", "server.handle_us", "server.self_us"},
		{"transport", "server.transport_us", ""},
		{"query (traced)", "trace.query_us", ""},
	}
	fmt.Fprintf(w, "\nWhere the time goes (µs per query, median; `total (self)` — second figure is the layer's self time, or the named sibling seam)\n\n| workload |")
	for _, c := range cols {
		fmt.Fprintf(w, " %s |", c.head)
	}
	fmt.Fprint(w, "\n|---|")
	for range cols {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, r := range s.Results {
		if !r.Traced {
			continue
		}
		fmt.Fprintf(w, "| `%s` |", r.Workload)
		for _, c := range cols {
			v := r.Metrics[c.total].Value
			switch {
			case v == 0:
				fmt.Fprint(w, " – |")
			case c.self == "":
				fmt.Fprintf(w, " %.3g |", v)
			default:
				fmt.Fprintf(w, " %.3g (%.3g) |", v, r.Metrics[c.self].Value)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nCalls per query behind those totals: ")
	for _, r := range s.Results {
		if r.Traced {
			fmt.Fprintf(w, "`%s` %.3g store probes, %.3g reldb index scans, %.3g rows read; ", r.Workload,
				r.Metrics["store.probes_per_query"].Value, r.Metrics["reldb.index_scans_per_query"].Value,
				r.Metrics["reldb.rows_read_per_query"].Value)
		}
	}
	fmt.Fprintln(w)
}
