package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Flags carries the observability flags every command-line tool shares:
//
//	-metrics-addr  serve the metrics JSON dump (/metrics) and net/http/pprof
//	               (/debug/pprof) on an address for the command's lifetime
//	-slow-query    emit a structured slow_query line to stderr for every
//	               query at or above the threshold
//	-metrics-dump  write one final metrics JSON dump when the command ends
//	               ("-" for stdout)
type Flags struct {
	addr string
	slow time.Duration
	dump string
}

// RegisterFlags defines the observability flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	o := &Flags{}
	fs.StringVar(&o.addr, "metrics-addr", "", "serve /metrics (JSON) and /debug/pprof on this address")
	fs.DurationVar(&o.slow, "slow-query", 0, "log queries slower than this to stderr (0 = off)")
	fs.StringVar(&o.dump, "metrics-dump", "", `write a final metrics JSON dump to this file ("-" = stdout)`)
	return o
}

// Start applies the parsed flags and returns a cleanup that stops the
// endpoint, detaches the slow-query log, and writes the final dump.
func (o *Flags) Start(stdout, stderr io.Writer) (func(), error) {
	if o.slow > 0 {
		SetSlowLog(stderr, o.slow)
	}
	var closeFn func() error
	if o.addr != "" {
		bound, c, err := Serve(o.addr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "metrics: /metrics and /debug/pprof on http://%s\n", bound)
		closeFn = c
	}
	return func() {
		if o.slow > 0 {
			SetSlowLog(nil, 0)
		}
		if closeFn != nil {
			closeFn()
		}
		switch o.dump {
		case "":
		case "-":
			Default.WriteJSON(stdout)
		default:
			if f, err := os.Create(o.dump); err == nil {
				Default.WriteJSON(f)
				f.Close()
			} else {
				fmt.Fprintln(stderr, "metrics-dump:", err)
			}
		}
	}, nil
}
