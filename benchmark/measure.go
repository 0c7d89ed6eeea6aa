package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// This file is the untraced run: set-up (several times, median reported),
// warm-up, the closed-loop measured window, and the end-to-end metrics.

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	StreamHash string           `json:"stream_hash"`
	Traced     bool             `json:"traced"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	FailRatio  float64          `json:"fail_ratio"`
	Samples    int              `json:"latency_samples"`
	Metrics    map[string]Value `json:"metrics"`
}

// Config is one invocation's settings.
type Config struct {
	Seed    int64
	Seconds float64 // measured window
	Warm    float64 // untimed warm-up before it
	Scale   Scale
	NProc   int
	Workdir string
	OutDir  string // where the traced run writes its spans
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// steadyRate is the completion rate of a closed loop as the median, over the
// whole seconds of the window, of the answers completed in that second by
// all clients: one long stall costs one bucket, not a share of the total.
// Latencies are gaps between consecutive completions of one client, so their
// running sum places each completion in its second. Windows shorter than
// three seconds report answers / wall time.
func steadyRate(cs []*client, wall time.Duration) float64 {
	whole := int(wall.Seconds())
	total := 0
	for _, c := range cs {
		total += len(c.lat)
	}
	if whole < 3 {
		return float64(total) / wall.Seconds()
	}
	perSecond := make([]float64, whole)
	for _, c := range cs {
		var at int64
		for _, ns := range c.lat {
			at += int64(ns)
			if sec := int(at / 1e9); sec < whole {
				perSecond[sec]++
			}
		}
	}
	return median(perSecond)
}

// quantileNs returns the q-quantile of sorted nanosecond samples, in µs.
func quantileNs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k]) / 1e3
}

func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setUp builds the workload Scale.SetupRepeats times, keeps the last env,
// and returns every build's stats.
func setUp(ctx context.Context, w Workload, cfg Config, first Query) (*env, []setupStats, error) {
	var all []setupStats
	for rep := 0; ; rep++ {
		// Each set-up starts from a collected heap, so the collector's
		// schedule inside it does not depend on the previous one's garbage.
		runtime.GC()
		e := newEnv(w, cfg.Scale, cfg.NProc, cfg.Workdir)
		if err := e.build(ctx, first); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		all = append(all, e.stats)
		if rep+1 >= cfg.Scale.SetupRepeats {
			return e, all, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

// client is one closed-loop caller: it sends its next query only when the
// previous answer has arrived and been checked.
type client struct {
	stream []*prepared
	pos    int
	d      digest

	attempted, failed int64
	lat               []uint32 // ns per correct answer, saturating
}

const maxSamples = 1 << 22

func (c *client) one(ctx context.Context, e *env) bool {
	p := c.stream[c.pos%len(c.stream)]
	c.pos++
	c.d.reset()
	err := e.exec(ctx, p, &c.d)
	c.attempted++
	if err != nil || c.d.ref() != p.want {
		c.failed++
		return false
	}
	return true
}

// loop runs the closed loop until the deadline, timing each query from the
// completion of the previous one.
func (c *client) loop(ctx context.Context, e *env, d time.Duration, record bool) {
	prev := time.Now()
	deadline := prev.Add(d)
	for prev.Before(deadline) && ctx.Err() == nil {
		ok := c.one(ctx, e)
		now := time.Now()
		if ok && record && len(c.lat) < cap(c.lat) {
			ns := now.Sub(prev).Nanoseconds()
			if ns > math.MaxUint32 {
				ns = math.MaxUint32
			}
			c.lat = append(c.lat, uint32(ns))
		}
		prev = now
	}
}

func runClients(ctx context.Context, e *env, cs []*client, d time.Duration, record bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(ctx, e, d, record)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func totals(cs []*client) (attempted, failed int64) {
	for _, c := range cs {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// warmUp fills the caches users would have warm: every distinct query once
// when the workload asks for the all-cached steady state, then the stream
// for the warm-up time. Warm-up answers are checked like measured ones.
func warmUp(ctx context.Context, e *env, cs []*client, d time.Duration) {
	if e.w.WarmAll {
		seen := make(map[*prepared]bool)
		all := &client{}
		for _, p := range cs[0].stream {
			if !seen[p] {
				seen[p] = true
				all.stream = append(all.stream, p)
			}
		}
		for range all.stream {
			all.one(ctx, e)
		}
		cs[0].attempted += all.attempted
		cs[0].failed += all.failed
	}
	runClients(ctx, e, cs, d, false)
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// RunUntraced measures one workload end to end.
func RunUntraced(ctx context.Context, w Workload, cfg Config) (*Result, error) {
	nClients := w.Clients(cfg.NProc)
	streams, hash := Streams(w, cfg.Seed, cfg.Scale, nClients)
	e, setups, err := setUp(ctx, w, cfg, streams[0][0])
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.measureDisk(); err != nil {
		return nil, err
	}
	refs, err := e.references(streams)
	if err != nil {
		return nil, err
	}
	heapMB := heapAfterGC()
	prep := e.prepareStreams(streams, refs)

	cs := make([]*client, nClients)
	for i := range cs {
		cs[i] = &client{stream: prep[i], lat: make([]uint32, 0, maxSamples/nClients)}
	}
	warmUp(ctx, e, cs, dur(cfg.Warm))
	warmAttempted, _ := totals(cs)

	var feed *feeder
	if w.TailFeed {
		if feed, err = startFeeder(e, cfg.Seconds); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := runClients(ctx, e, cs, dur(cfg.Seconds), true)
	runtime.ReadMemStats(&m1)
	attempted, failed := totals(cs)
	measured := attempted - warmAttempted
	allocsPerQ := float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	bytesPerQ := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(measured)

	if feed != nil {
		// The feeder's failures are the workload's: a feed that fell behind
		// its schedule, lost an event or dead-lettered one counts as failed.
		attempted++
		if err := feed.stop(); err != nil {
			fmt.Printf("# ingest_tail feeder: %v\n", err)
			failed++
		}
		// Allocations per query are taken on the quiet store that remains,
		// so the feeder's and the tail session's own garbage is not billed
		// to the queries.
		quiet := &client{stream: cs[0].stream, pos: cs[0].pos}
		n := 2000
		if cfg.Seconds < 1 {
			n = 100
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			quiet.one(ctx, e)
		}
		runtime.ReadMemStats(&m1)
		attempted += quiet.attempted
		failed += quiet.failed
		allocsPerQ = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		bytesPerQ = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}

	var lat []uint32
	for _, c := range cs {
		lat = append(lat, c.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	var setupS, ingestRate []float64
	for _, s := range setups {
		setupS = append(setupS, s.totalS)
		ingestRate = append(ingestRate, float64(s.rows)/(s.ingestS+s.ckptS))
	}
	res := &Result{
		Workload: w.Name, Seed: cfg.Seed, StreamHash: hash,
		Attempted: attempted, Failed: failed, FailRatio: float64(failed) / float64(attempted),
		Samples: len(lat), Metrics: make(map[string]Value),
	}
	set := func(name string, v float64) {
		for _, m := range EndToEnd {
			if m.Name == name {
				res.Metrics[name] = Value{v, m.Unit}
				return
			}
		}
		panic("unknown end-to-end metric " + name)
	}
	set("setup_s", median(setupS))
	set("query_p50_us", quantileNs(lat, 0.50))
	set("query_p90_us", quantileNs(lat, 0.90))
	set("queries_per_s", steadyRate(cs, wall))
	set("allocs_per_query", allocsPerQ)
	set("bytes_per_query", bytesPerQ)
	set("heap_after_setup_mb", heapMB)
	set("ingest_rows_per_s", median(ingestRate))
	set("disk_bytes_per_row", float64(e.stats.diskBytes)/float64(e.stats.rows))
	return res, nil
}

// feeder offers small testbed runs to a TailIngest session on a fixed
// schedule (open loop: event n is due at start + n/rate whether or not the
// store keeps up), and records how late each event was handed over.
type feeder struct {
	events  chan trace.Event
	quit    chan struct{}
	fed     sync.WaitGroup
	session sync.WaitGroup

	rate   float64
	sent   int
	lateNs []int64
	start  time.Time

	stats store.TailStats
	err   error
}

func startFeeder(e *env, seconds float64) (*feeder, error) {
	_, tr, err := engine.New(gen.Registry()).RunTrace(e.tailWF, "template", gen.TestbedInputs(e.sc.TailD))
	if err != nil {
		return nil, err
	}
	template := tr.Events()
	f := &feeder{
		// One schedule tick's worth of events may wait in the channel while
		// the session flushes a batch.
		events: make(chan trace.Event, e.sc.TailEventsPerSec/100+1),
		quit:   make(chan struct{}),
		rate:   float64(e.sc.TailEventsPerSec),
		lateNs: make([]int64, 0, int(seconds*1.5*float64(e.sc.TailEventsPerSec))+1024),
	}
	specs := map[string]*workflow.Workflow{e.tailWF.Name: e.tailWF}
	f.session.Add(1)
	go func() {
		defer f.session.Done()
		f.stats, f.err = e.st.TailIngest(context.Background(), f.events, store.TailOptions{Specs: specs})
	}()
	f.start = time.Now()
	f.fed.Add(1)
	go func() {
		defer f.fed.Done()
		defer close(f.events)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-f.quit:
				return
			case now := <-tick.C:
				due := int(now.Sub(f.start).Seconds() * f.rate)
				for f.sent < due {
					ev := template[f.sent%len(template)]
					ev.RunID = fmt.Sprintf("live-%07d", f.sent/len(template))
					select {
					case f.events <- ev:
					case <-f.quit:
						return
					}
					at := f.start.Add(time.Duration(float64(f.sent) / f.rate * float64(time.Second)))
					if len(f.lateNs) < cap(f.lateNs) {
						f.lateNs = append(f.lateNs, time.Since(at).Nanoseconds())
					}
					f.sent++
				}
			}
		}
	}()
	return f, nil
}

// lateP99Ms is the 99th percentile of hand-over lateness.
func (f *feeder) lateP99Ms() float64 {
	if len(f.lateNs) == 0 {
		return 0
	}
	s := append([]int64(nil), f.lateNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(math.Ceil(0.99*float64(len(s))))-1]) / 1e6
}

// stop ends the feed, waits for the session to apply everything handed
// over, and reports whether the feed held: on schedule, nothing lost,
// nothing dead-lettered.
func (f *feeder) stop() error {
	scheduled := time.Since(f.start).Seconds() * f.rate
	close(f.quit)
	f.fed.Wait()
	f.session.Wait()
	switch {
	case f.err != nil:
		return f.err
	case f.stats.DeadLettered != 0:
		return fmt.Errorf("%d events dead-lettered", f.stats.DeadLettered)
	case f.stats.Applied != f.sent:
		return fmt.Errorf("%d events handed over, %d applied", f.sent, f.stats.Applied)
	case scheduled >= 1000 && float64(f.sent) < 0.95*scheduled:
		return fmt.Errorf("feeder fell behind: %d of %.0f scheduled events sent", f.sent, scheduled)
	}
	return nil
}
