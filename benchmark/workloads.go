package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// This file defines the five workloads as data: what each one runs, why it
// was chosen, and its query stream. A stream is a pure function of
// (workload, seed, scale); it names runs and list elements by position only
// and knows nothing about the engine that will answer it, so the same stream
// can later be pointed at another store topology without new workload code.

// Kind is the engine-agnostic class of one query.
type Kind uint8

const (
	// IPFocused is the paper's headline query: INDEXPROJ,
	// lin(<2TO1_FINAL:product[i,j]>, {LISTGEN_1}) in one testbed run.
	IPFocused Kind = iota
	// IPUnfocused is the same binding with every processor in the focus set.
	IPUnfocused
	// NIFocused is the focused query answered by the naive traversal.
	NIFocused
	// GKFocused is lin(<workflow:paths_per_gene[i,0]>, {get_pathways_by_genes})
	// over a set of GK runs.
	GKFocused
	// GKUnfocused is the same binding with every GK processor in focus.
	GKUnfocused
	// TBMultiFocused is IPFocused over a set of testbed runs.
	TBMultiFocused
)

var kindNames = [...]string{"indexproj.focused", "indexproj.unfocused", "ni.focused",
	"multirun.gk_focused", "multirun.gk_unfocused", "multirun.tb_focused"}

func (k Kind) String() string { return kindNames[k] }

// Query is one generated request. It is comparable, so it keys the table of
// reference answers. Single-run kinds use Run; multi-run kinds address the
// runs Base + (Off + t*Stride) mod Span for t in [0, N).
type Query struct {
	Kind Kind
	JSON bool // served_mix only: format=json
	I, J int32
	Run  int32

	Base, Span, Off, Stride, N int32
}

// RunIndices expands a multi-run query's run set.
func (q Query) RunIndices() []int {
	out := make([]int, q.N)
	for t := range out {
		out[t] = int(q.Base + (q.Off+int32(t)*q.Stride)%q.Span)
	}
	return out
}

// Scale sizes the stored data and the query sets. Full is the benchmark;
// Quick is the reduction bench_test.go runs in a few seconds.
type Scale struct {
	L, D   int // testbed chain length and list size
	TBRuns int // stored testbed runs (focused_point, trace_walk, served_mix)

	HotKeys int // focused_point hot set

	GKRuns, GKSegmented, GKPerQuery int // multirun_scan
	ServedGKRuns, ServedGKPerQuery  int // served_mix

	IngestRuns, TailPerQuery int // ingest_tail phase A runs; runs per phase B query
	TailL, TailD             int // shape of the runs the feeder streams
	TailEventsPerSec         int

	TracedWarm     int // queries the traced run warms up with (a count, not a time, so counts repeat)
	CountedLadders int // traced queries whose counts are reported (fixed, so counts repeat)
	SetupRepeats   int // set-ups per run; setup_s is their median
}

var (
	Full = Scale{
		L: 75, D: 50, TBRuns: 8, HotKeys: 256,
		GKRuns: 2048, GKSegmented: 1536, GKPerQuery: 64,
		ServedGKRuns: 256, ServedGKPerQuery: 16,
		IngestRuns: 16, TailPerQuery: 8, TailL: 6, TailD: 6, TailEventsPerSec: 10000,
		TracedWarm: 1024, CountedLadders: 256, SetupRepeats: 3,
	}
	Quick = Scale{
		L: 10, D: 8, TBRuns: 4, HotKeys: 16,
		GKRuns: 64, GKSegmented: 48, GKPerQuery: 16,
		ServedGKRuns: 16, ServedGKPerQuery: 8,
		IngestRuns: 4, TailPerQuery: 4, TailL: 4, TailD: 4, TailEventsPerSec: 2000,
		TracedWarm: 64, CountedLadders: 32, SetupRepeats: 1,
	}
)

// Workload describes one workload. Stream generates the query stream of one
// client; WarmAll asks the runner to execute every distinct query once
// before timing (a workload whose point is the all-cached steady state);
// TailFeed asks it to stream runs into the store on a fixed schedule beside
// the measured queries.
type Workload struct {
	Name     string
	Why      string
	Clients  func(nproc int) int
	WarmAll  bool
	TailFeed bool
	Stream   func(r *rand.Rand, sc Scale) []Query
}

func oneClient(int) int { return 1 }

// Workloads lists the five workloads in the order they run. Names are fixed:
// later issues cite them.
var Workloads = []Workload{
	{
		Name:    "focused_point",
		Why:     "paper's headline cell: cached-plan focused INDEXPROJ on one run; store->sqlike->reldb do the work, server and colstore none",
		Clients: oneClient, WarmAll: true, Stream: focusedPointStream,
	},
	{
		Name:    "trace_walk",
		Why:     "paper's baseline and worst case: NI focused alternating with unfocused INDEXPROJ on fresh indices; exercises TraceQuerier reads and plan compilation",
		Clients: oneClient, Stream: traceWalkStream,
	},
	{
		Name:    "multirun_scan",
		Why:     "64-of-2048-run GK queries through the parallel executor; colscan dominates, every 4th query pair falls back to batched row probes and sets the tail",
		Clients: oneClient, Stream: multirunScanStream,
	},
	{
		Name:    "served_mix",
		Why:     "HTTP mix against provd's handler over loopback with a plan cache smaller than the key space; server+queryfmt dominate, store is unresolvable",
		Clients: func(nproc int) int { return nproc }, Stream: servedMixStream,
	},
	{
		Name:    "ingest_tail",
		Why:     "durable bulk ingest+checkpoint+reopen, then pinned-View multi-run queries beside a 10k events/s tail feed; read, write and space costs together",
		Clients: oneClient, TailFeed: true, Stream: ingestTailStream,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// zipfOver returns a sampler of positions in a seeded permutation of
// [0, n): rank k is drawn with probability proportional to (1+k)^-1.1, and
// the permutation decides which element holds which rank, so another seed
// heats other elements.
func zipfOver(r *rand.Rand, n int) func() int {
	perm := r.Perm(n)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	return func() int { return perm[z.Uint64()] }
}

func elem(pos, d int) (int32, int32) { return int32(pos / d), int32(pos % d) }

const (
	focusedPointLen = 1 << 16
	traceWalkLen    = 1 << 13
	multirunScanLen = 1 << 13
	servedMixLen    = 1 << 15 // per client
	ingestTailLen   = 1 << 13
)

func focusedPointStream(r *rand.Rand, sc Scale) []Query {
	hot := r.Perm(sc.D * sc.D)[:sc.HotKeys]
	z := rand.NewZipf(r, 1.1, 1, uint64(sc.HotKeys-1))
	out := make([]Query, focusedPointLen)
	for k := range out {
		i, j := elem(hot[z.Uint64()], sc.D)
		out[k] = Query{Kind: IPFocused, I: i, J: j, Run: int32(r.Intn(sc.TBRuns))}
	}
	return out
}

func traceWalkStream(r *rand.Rand, sc Scale) []Query {
	out := make([]Query, traceWalkLen)
	for k := range out {
		kind := NIFocused
		if k%2 == 1 {
			kind = IPUnfocused
		}
		i, j := elem(r.Intn(sc.D*sc.D), sc.D)
		out[k] = Query{Kind: kind, I: i, J: j, Run: int32(r.Intn(sc.TBRuns))}
	}
	return out
}

// strided draws a run set of n runs out of the group [base, base+span).
func strided(r *rand.Rand, q Query, base, span, n int) Query {
	q.Base, q.Span, q.N = int32(base), int32(span), int32(n)
	q.Stride = int32(1 + r.Intn(span/n))
	q.Off = int32(r.Intn(span))
	return q
}

func multirunScanStream(r *rand.Rand, sc Scale) []Query {
	out := make([]Query, multirunScanLen)
	for k := range out {
		q := Query{Kind: GKFocused, I: int32(r.Intn(8))}
		if k%2 == 1 {
			q.Kind = GKUnfocused
		}
		if (k/2)%4 == 3 {
			// Every 4th focused/unfocused pair draws from the runs ingested
			// after the checkpoint: they have no column segment, so the
			// executor resolves them through batched row probes.
			out[k] = strided(r, q, sc.GKSegmented, sc.GKRuns-sc.GKSegmented, sc.GKPerQuery)
		} else {
			out[k] = strided(r, q, 0, sc.GKSegmented, sc.GKPerQuery)
		}
	}
	return out
}

func servedMixStream(r *rand.Rand, sc Scale) []Query {
	pick := zipfOver(r, sc.D*sc.D)
	out := make([]Query, servedMixLen)
	for k := range out {
		i, j := elem(pick(), sc.D)
		q := Query{Kind: IPFocused, I: i, J: j, Run: int32(r.Intn(sc.TBRuns))}
		switch c := r.Intn(100); {
		case c < 70:
		case c < 85:
			q.JSON = true
		case c < 95:
			q = strided(r, Query{Kind: GKFocused, I: int32(r.Intn(8))}, 0, sc.ServedGKRuns, sc.ServedGKPerQuery)
		default:
			q.Kind = NIFocused
		}
		out[k] = q
	}
	return out
}

func ingestTailStream(r *rand.Rand, sc Scale) []Query {
	pick := zipfOver(r, sc.D*sc.D)
	out := make([]Query, ingestTailLen)
	for k := range out {
		i, j := elem(pick(), sc.D)
		out[k] = strided(r, Query{Kind: TBMultiFocused, I: i, J: j}, 0, sc.IngestRuns, sc.TailPerQuery)
	}
	return out
}

// Streams generates the per-client streams of a workload and their hash.
// Two runs printing the same hash executed the same inputs.
func Streams(w Workload, seed int64, sc Scale, clients int) ([][]Query, string) {
	name := fnv.New64a()
	name.Write([]byte(w.Name))
	h := fnv.New64a()
	var buf [33]byte
	streams := make([][]Query, clients)
	for c := range streams {
		r := rand.New(rand.NewSource(seed ^ int64(name.Sum64()) ^ int64(c)<<32))
		streams[c] = w.Stream(r, sc)
		for _, q := range streams[c] {
			buf[0] = byte(q.Kind) << 1
			if q.JSON {
				buf[0] |= 1
			}
			for f, v := range [...]int32{q.I, q.J, q.Run, q.Base, q.Span, q.Off, q.Stride, q.N} {
				binary.LittleEndian.PutUint32(buf[1+4*f:], uint32(v))
			}
			h.Write(buf[:])
		}
	}
	return streams, fmt.Sprintf("%016x", h.Sum64())
}
