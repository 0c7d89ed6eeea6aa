// Command benchmark is the repository's benchmark: five lineage workloads,
// end-to-end metrics measured with tracing off, and an outside-in per-layer
// trace. See README.md in this directory.
//
//	bash benchmark/run.sh --seed 1                      # every workload, end to end
//	bash benchmark/run.sh --seed 1 --trace 1 --markdown # per-layer numbers and the staircase table
//	bash benchmark/run.sh --workload focused_point --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Env records where a result was measured; every output carries it.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// Summary is the machine-readable output of a whole invocation. It claims
// nothing: it is the instrument's reading.
type Summary struct {
	Benchmark string    `json:"benchmark"`
	Env       Env       `json:"env"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Quick     bool      `json:"quick,omitempty"`
	Results   []*Result `json:"results"`
	Claim     *string   `json:"claim"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

func currentEnv() Env {
	return Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Go: runtime.Version(), Commit: commit()}
}

func list() {
	fmt.Println("workloads:")
	for _, w := range Workloads {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (tracing off; bound = share of the parent's median it may worsen by):")
	for _, m := range EndToEnd {
		fmt.Printf("  %-22s %-7s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("  fail_ratio             ratio   lower  bound 0 absolute (reported as failed/attempted)")
	fmt.Println("per-layer metrics (--trace 1):")
	for _, m := range PerLayer {
		fmt.Printf("  %-44s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

// printResult prints every metric by name with its unit.
func printResult(r *Result) {
	fmt.Printf("# %s seed=%d stream=%s traced=%v attempted=%d failed=%d fail_ratio=%g samples=%d\n",
		r.Workload, r.Seed, r.StreamHash, r.Traced, r.Attempted, r.Failed, r.FailRatio, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Printf("%-14s %-44s %16.6g %s\n", r.Workload, n, v.Value, v.Unit)
	}
}

func writeSummary(path string, s *Summary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (default: all, then a summary)")
		seed     = flag.Int64("seed", 1, "seed of the query streams")
		nRuns    = flag.Int("runs", 1, "end-to-end runs per workload, on seeds seed, seed+1, ...: a set of runs for -compare")
		seconds  = flag.Float64("seconds", RunSeconds, "measured window per workload, in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics (with -workload: only those)")
		quick    = flag.Bool("quick", false, "small data and short windows (what bench_test.go runs)")
		doList   = flag.Bool("list", false, "print workloads and metrics with units and exit")
		asJSON   = flag.Bool("json", false, "with -list: print BENCHMARK.json")
		out      = flag.String("out", "", "also write the summary JSON to this file")
		compare  = flag.Bool("compare", false, "compare two summary files given as arguments")
		markdown = flag.Bool("markdown", false, "with -trace 1: print the where-the-time-goes tables as markdown")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the stores the benchmark writes")
	)
	flag.Parse()

	switch {
	case *doList && *asJSON:
		os.Stdout.Write(benchmarkJSON())
		return nil
	case *doList:
		list()
		return nil
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two summary files")
		}
		return Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	selected := Workloads
	if *workload != "" {
		w, ok := WorkloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (see -list)", *workload)
		}
		selected = []Workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := Config{Seed: *seed, Seconds: *seconds, Warm: 1.5, Scale: Full, NProc: runtime.NumCPU(),
		Workdir: *workdir, OutDir: filepath.Join("benchmark", "out")}
	if *quick {
		cfg.Scale, cfg.Warm = Quick, 0.05
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	sum := Summary{Benchmark: "lineage", Env: currentEnv(), Seed: *seed, Seconds: *seconds, Quick: *quick}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		sum.Env.NProc, sum.Env.GOMAXPROCS, sum.Env.CPU, sum.Env.Go, sum.Env.Commit)
	var failed int64
	for _, w := range selected {
		// The driver asks for one kind of run at a time; a whole invocation
		// measures end to end first (on -runs consecutive seeds), then traces
		// separately on the first seed.
		type planned struct {
			run  func(context.Context, Workload, Config) (*Result, error)
			seed int64
		}
		var plan []planned
		if *traced != 0 && *workload != "" {
			plan = []planned{{RunTraced, *seed}}
		} else {
			for k := 0; k < *nRuns; k++ {
				plan = append(plan, planned{RunUntraced, *seed + int64(k)})
			}
			if *traced != 0 {
				plan = append(plan, planned{RunTraced, *seed})
			}
		}
		for _, p := range plan {
			cfg := cfg
			cfg.Seed = p.seed
			r, err := p.run(ctx, w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(r)
			failed += r.Failed
			sum.Results = append(sum.Results, r)
		}
	}
	if *markdown {
		Markdown(os.Stdout, &sum)
	}
	if *out != "" {
		if err := writeSummary(*out, &sum); err != nil {
			return err
		}
	}

	// The last line is machine-readable: the driver's result object for one
	// workload, the whole summary otherwise.
	var last any = sum
	if *workload != "" {
		r := sum.Results[0]
		last = struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]Value `json:"metrics"`
		}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
