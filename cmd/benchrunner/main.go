// Command benchrunner regenerates the tables and figures of the paper's
// experimental evaluation (§4) and prints them as text tables (optionally
// CSV).
//
// Usage:
//
//	benchrunner                  # every experiment, paper-scale grids
//	benchrunner -quick           # shrunken grids for a fast smoke run
//	benchrunner -exp fig9        # one experiment
//	benchrunner -csv -out results/  # also write one CSV per experiment
//	benchrunner -exp fig4 -metrics-addr :9090   # live /metrics + pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/obs"
)

var experiments = map[string]func(bench.Options) (*bench.Report, error){
	"fig4":      bench.Fig4,
	"fig4par":   bench.Fig4Parallel,
	"fig4shard": bench.Fig4Shard,
	"fig4col":   bench.Fig4Col,
	"serve":     bench.FigServe,
	"table1":    bench.Table1,
	"fig6":      bench.Fig6,
	"fig7":      bench.Fig7,
	"fig8":      bench.Fig8,
	"fig9":      bench.Fig9,
	"fig10":     bench.Fig10,
	"ingest":    bench.Ingest,
	"failover":  bench.Failover,
	"stream":    bench.Stream,
}

// experimentNames returns the registered experiment names, sorted, for the
// -exp flag's help text and its unknown-name error.
func experimentNames() []string {
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
		}
		os.Exit(1)
	}
}

// run is the whole CLI behind a testable seam: output goes to the supplied
// writers and failures are returned, never os.Exit'ed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment: all, "+strings.Join(experimentNames(), ", "))
		quick   = fs.Bool("quick", false, "shrink every grid for a fast smoke run")
		queries = fs.Int("queries", 5, "identical queries per measurement (best-of)")
		csv     = fs.Bool("csv", false, "also write CSV files")
		out     = fs.String("out", ".", "directory for CSV output")
		timeout = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	)
	oo := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsDone, err := oo.Start(stdout, stderr)
	if err != nil {
		return err
	}
	defer obsDone()

	// Experiments run under a context cancelled by Ctrl-C (SIGINT/SIGTERM)
	// or -timeout, so a long sweep aborts between (or inside) executor
	// phases instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := bench.Options{Quick: *quick, Queries: *queries, Ctx: ctx}

	var reports []*bench.Report
	if *exp == "all" {
		reports, err = bench.All(opts)
		if err != nil {
			return err
		}
	} else {
		fn, ok := experiments[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (available: all, %s)",
				*exp, strings.Join(experimentNames(), ", "))
		}
		rep, err := fn(opts)
		if err != nil {
			return err
		}
		reports = []*bench.Report{rep}
	}

	for _, rep := range reports {
		fmt.Fprintln(stdout, rep.String())
		if *csv {
			path := filepath.Join(*out, rep.ID+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "   (csv written to %s)\n\n", path)
		}
	}
	return nil
}
