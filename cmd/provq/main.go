// Command provq runs the bundled workflows, stores their provenance traces
// in a relational store, and answers focused lineage queries with either the
// naïve traversal (NI) or the INDEXPROJ algorithm.
//
// Usage:
//
//	provq run   -store file:prov.db -wf testbed -l 10 -d 25
//	provq run   -store 'shard:provdir?n=4' -wf gk -lists 3 -genes 4
//	provq run   -store file:prov.db -wf pd -query "apoptosis" -max 8
//	provq runs  -store file:prov.db
//	provq query -store file:prov.db -run testbed_l10-0001 \
//	            -binding '2TO1_FINAL:product[3,7]' -focus LISTGEN_1 -method indexproj
//	provq query -store file:prov.db -runs run1,run2,run3 -parallel 4 \
//	            -binding 'workflow:out[]'
//	provq stats -store file:prov.db -run testbed_l10-0001
//	provq graph -store file:prov.db -run testbed_l10-0001 -o prov.dot
//	provq verify -store file:prov.db
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/queryfmt"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "provq:", err)
		}
		os.Exit(1)
	}
}

// run dispatches the subcommands. It is the whole CLI behind a testable
// seam: output goes to the supplied writers and failures are returned, never
// os.Exit'ed. Every subcommand runs under a context cancelled by Ctrl-C
// (SIGINT/SIGTERM), so long multi-run queries stop cleanly instead of being
// killed mid-write.
func run(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(args) == 0 {
		usage(stderr)
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "runs":
		return cmdRuns(args[1:], stdout, stderr)
	case "query":
		return cmdQuery(ctx, args[1:], stdout, stderr)
	case "stats":
		return cmdStats(args[1:], stdout, stderr)
	case "graph":
		return cmdGraph(args[1:], stdout, stderr)
	case "verify":
		return cmdVerify(args[1:], stdout, stderr)
	case "ingest":
		return cmdIngest(ctx, args[1:], stdout, stderr)
	case "dlq":
		return cmdDLQ(ctx, args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `provq <run|runs|query|stats> [flags]

  run    execute a bundled workflow (testbed/gk/pd) and store its trace
  runs   list the stored runs
  query  answer a lineage query: lin(<proc:port[index]>, focus)
  stats  report trace record counts
  graph  export a run's provenance graph in Graphviz DOT
  verify check a stored run's integrity (values, indices, Prop. 1)
  ingest stream an NDJSON event feed into a store (live tail ingest)
  dlq    inspect the ingest dead-letter queue (-retry replays it)

Run "provq <command> -h" for command flags.`)
}

// newFlagSet builds a flag set that reports parse errors instead of exiting
// and prints its own usage to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// saveSnapshot persists snapshot-backed stores: file: stores snapshot to
// their path, file-backed sharded stores into their own directories
// (durable-backed stores are WAL'd already; Save is a no-op for them).
func saveSnapshot(sys *core.System, dsn string) error {
	switch {
	case strings.HasPrefix(dsn, "file:"):
		return sys.Save(strings.TrimPrefix(dsn, "file:"))
	case shard.IsShardDSN(dsn):
		return sys.Save("")
	}
	return nil
}

// newSystem opens a system over the store DSN and registers the bundled
// workflows and their behaviours, plus any extra definitions loaded from
// JSON files (comma-separated paths). Extra definitions have no registered
// behaviours — they cannot be Run, but lineage queries and verification
// against their stored runs work (both only read the specification).
func newSystem(dsn string, testbedL int, wfJSON string) (*core.System, error) {
	sys, err := core.NewSystem(core.WithStoreDSN(dsn))
	if err != nil {
		return nil, err
	}
	reg := sys.Registry()
	gen.RegisterTestbed(reg)
	gen.RegisterGK(reg, gen.DefaultKEGG())
	gen.RegisterPD(reg, gen.DefaultPubMed())
	for _, w := range gen.BundledWorkflows(testbedL) {
		if err := sys.RegisterWorkflow(w); err != nil {
			sys.Close()
			return nil, err
		}
	}
	for _, path := range strings.Split(wfJSON, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			sys.Close()
			return nil, err
		}
		var w workflow.Workflow
		if err := json.Unmarshal(data, &w); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := sys.RegisterWorkflow(&w); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return sys, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	wf := fs.String("wf", "testbed", "workflow: testbed, gk, pd")
	wfJSON := fs.String("wfjson", "", "comma-separated extra workflow definition JSON files")
	l := fs.Int("l", 10, "testbed chain length")
	d := fs.Int("d", 10, "testbed list size")
	lists := fs.Int("lists", 3, "gk: number of gene sub-lists")
	genes := fs.Int("genes", 4, "gk: genes per sub-list")
	query := fs.String("query", "protein binding", "pd: search query")
	maxAbs := fs.Int("max", 8, "pd: abstract budget")
	save := fs.Bool("save", true, "snapshot file-backed stores after the run")
	inputsJSON := fs.String("inputs", "", `override inputs as JSON, e.g. '{"list_of_geneIDList": [["mmu:1"],["mmu:2"]]}'`)
	oo := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsDone, err := oo.Start(stdout, stderr)
	if err != nil {
		return err
	}
	defer obsDone()

	sys, err := newSystem(*dsn, *l, *wfJSON)
	if err != nil {
		return err
	}
	defer sys.Close()

	var name string
	var inputs map[string]value.Value
	switch *wf {
	case "testbed":
		name = fmt.Sprintf("testbed_l%d", *l)
		inputs = gen.TestbedInputs(*d)
	case "gk":
		name = "genes2Kegg"
		inputs = gen.GKInputs(*lists, *genes)
	case "pd":
		name = "protein_discovery"
		inputs = gen.PDInputs(*query, *maxAbs)
	default:
		return fmt.Errorf("unknown workflow %q", *wf)
	}
	if *inputsJSON != "" {
		var raw map[string]any
		if err := json.Unmarshal([]byte(*inputsJSON), &raw); err != nil {
			return fmt.Errorf("bad -inputs: %w", err)
		}
		for port, jv := range raw {
			v, err := value.FromJSON(jv)
			if err != nil {
				return fmt.Errorf("bad -inputs for port %q: %w", port, err)
			}
			inputs[port] = v
		}
	}
	res, err := sys.Run(name, inputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run %s completed\n", res.RunID)
	var ports []string
	for port := range res.Outputs {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	for _, port := range ports {
		fmt.Fprintf(stdout, "  %s = %s\n", port, truncate(value.Encode(res.Outputs[port]), 160))
	}
	total, err := sys.Store().TotalRecords(res.RunID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  trace records: %d\n", total)
	if *save {
		return saveSnapshot(sys, *dsn)
	}
	return nil
}

func cmdRuns(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("runs", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := newSystem(*dsn, 10, "")
	if err != nil {
		return err
	}
	defer sys.Close()
	runs, err := sys.Store().ListRuns()
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		fmt.Fprintln(stdout, "no runs stored")
		return nil
	}
	for _, r := range runs {
		total, err := sys.Store().TotalRecords(r.RunID)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-30s workflow=%-20s records=%d\n", r.RunID, r.Workflow, total)
	}
	return nil
}

func cmdQuery(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("query", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
	runID := fs.String("run", "", "run ID (see provq runs)")
	runsArg := fs.String("runs", "", "comma-separated run IDs for a multi-run query (shares one compiled plan)")
	parallel := fs.Int("parallel", 1, "worker parallelism for multi-run queries")
	batch := fs.Int("batch", 0, "runs per batched store probe (0 = default)")
	colscan := fs.String("colscan", "auto", "columnar probe stage for multi-run queries: auto, on or off (false = off)")
	partial := fs.Bool("partial", false, "degraded mode: answer multi-run queries from surviving shards when a replicated shard is fully unavailable")
	binding := fs.String("binding", "", "query binding, e.g. '2TO1_FINAL:product[3,7]' or 'workflow:out[]'")
	focusArg := fs.String("focus", "", "comma-separated focus processors")
	method := fs.String("method", "indexproj", "lineage algorithm: indexproj or naive")
	direction := fs.String("direction", "back", "back (lineage) or forward (impact)")
	l := fs.Int("l", 10, "testbed chain length used when the run's workflow is a testbed")
	wfJSON := fs.String("wfjson", "", "comma-separated extra workflow definition JSON files")
	values := fs.Bool("values", true, "print the bound element values")
	oo := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsDone, err := oo.Start(stdout, stderr)
	if err != nil {
		return err
	}
	defer obsDone()

	var runIDs []string
	for _, r := range strings.Split(*runsArg, ",") {
		if r = strings.TrimSpace(r); r != "" {
			runIDs = append(runIDs, r)
		}
	}
	if *runID == "" && len(runIDs) == 0 {
		return fmt.Errorf("query requires -run (or -runs) and -binding")
	}
	if *binding == "" {
		return fmt.Errorf("query requires -run (or -runs) and -binding")
	}
	m, err := core.ParseMethod(*method)
	if err != nil {
		return err
	}
	proc, port, idx, err := queryfmt.ParseBinding(*binding)
	if err != nil {
		return err
	}
	focus := queryfmt.ParseFocus(*focusArg)
	// Parsed up front so a bad value fails the command even on single-run
	// queries, where the mode has nothing to select.
	csMode, err := lineage.ParseColScanMode(*colscan)
	if err != nil {
		return err
	}
	q := queryfmt.Query{Direction: *direction, Proc: proc, Port: port, Idx: idx, Focus: focus, Method: m}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sys, err := newSystem(*dsn, *l, *wfJSON)
	if err != nil {
		return err
	}
	defer sys.Close()
	var res *lineage.Result
	switch {
	case len(runIDs) > 0:
		if *direction != "back" && *direction != "backward" {
			return fmt.Errorf("multi-run queries only support -direction back")
		}
		if *partial && m != core.IndexProj {
			return fmt.Errorf("-partial requires -method indexproj")
		}
		opt := lineage.MultiRunOptions{Parallelism: *parallel, BatchSize: *batch, ColScan: csMode, Partial: *partial}
		res, err = sys.LineageMultiRunParallel(ctx, m, runIDs, proc, port, idx, focus, opt)
		if err != nil {
			return err
		}
		q.WriteMultiRunHeader(stdout, len(runIDs), *parallel, res)
		queryfmt.WriteDegraded(stdout, res)
	default:
		switch *direction {
		case "back", "backward":
			res, err = sys.Lineage(m, *runID, proc, port, idx, focus)
		case "forward", "fwd":
			res, err = sys.Affected(*runID, proc, port, idx, focus)
		default:
			return fmt.Errorf("unknown direction %q (want back or forward)", *direction)
		}
		if err != nil {
			return err
		}
		q.WriteHeader(stdout, res)
	}
	queryfmt.WriteEntries(stdout, res, *values)
	return nil
}

func cmdStats(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("stats", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	runID := fs.String("run", "", "run ID ('' for all runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := newSystem(*dsn, 10, "")
	if err != nil {
		return err
	}
	defer sys.Close()
	in, out, xf, err := sys.Store().RecordCounts(*runID)
	if err != nil {
		return err
	}
	scope := *runID
	if scope == "" {
		scope = "(all runs)"
	}
	fmt.Fprintf(stdout, "scope %s\n  xform input rows:  %d\n  xform output rows: %d\n  xfer rows:         %d\n  total:             %d\n",
		scope, in, out, xf, in+out+xf)
	return nil
}

func cmdGraph(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("graph", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	runID := fs.String("run", "", "run ID (see provq runs)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runID == "" {
		return fmt.Errorf("graph requires -run")
	}
	sys, err := newSystem(*dsn, 10, "")
	if err != nil {
		return err
	}
	defer sys.Close()
	tr, err := sys.Store().LoadTrace(*runID)
	if err != nil {
		return err
	}
	g := trace.BuildGraph(tr)
	dot := g.DOT()
	if *out == "" {
		fmt.Fprint(stdout, dot)
		return nil
	}
	if err := os.WriteFile(*out, []byte(dot), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d nodes, %d arcs to %s\n", g.NumNodes(), g.NumArcs(), *out)
	return nil
}

func cmdVerify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("verify", stderr)
	dsn := fs.String("store", "file:prov.db", "store DSN (file:<path>, durable:<dir>, memory:<name>, shard:<dir>?n=N&r=R)")
	runID := fs.String("run", "", "run ID ('' verifies every stored run)")
	l := fs.Int("l", 10, "testbed chain length for testbed runs")
	wfJSON := fs.String("wfjson", "", "comma-separated extra workflow definition JSON files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := newSystem(*dsn, *l, *wfJSON)
	if err != nil {
		return err
	}
	defer sys.Close()
	var ids []string
	if *runID != "" {
		ids = []string{*runID}
	} else {
		runs, err := sys.Store().ListRuns()
		if err != nil {
			return err
		}
		for _, r := range runs {
			ids = append(ids, r.RunID)
		}
	}
	bad := 0
	for _, id := range ids {
		runs, err := sys.Store().ListRuns()
		if err != nil {
			return err
		}
		var wfName string
		for _, r := range runs {
			if r.RunID == id {
				wfName = r.Workflow
			}
		}
		wf, _ := sys.Workflow(wfName) // nil => structural checks only
		rep, err := sys.Store().Verify(id, wf)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		if !rep.OK() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed verification", bad)
	}
	return nil
}

func truncate(s string, n int) string { return queryfmt.Truncate(s, n) }
