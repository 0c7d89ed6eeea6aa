// Package shard partitions a provenance store across N independent
// reldb-backed store.Store instances by consistent hash of the run ID.
//
// The paper's multi-run story (§3.4 — one compiled plan, probed once per
// run) is embarrassingly partitionable by run: every event row carries its
// run_id and no query joins rows of different runs, so a run is an atomic
// unit of placement. A ShardedStore routes single-run operations (writers,
// trace loads, point probes) to the owning shard and answers the batched
// multi-run queries (InputBindingsBatch, ValuesBatch) by scatter-gather:
// group the batch by owning shard, issue one batched probe per shard
// concurrently, merge the per-shard answers. Each shard is a full
// store.Store over its own reldb engine, so shards never share a lock —
// ingest batches commit concurrently and probe scans cover only the owning
// shard's rows.
//
// The topology (shard count, hash function, virtual-node count) is persisted
// in a manifest next to the shard databases, so a store reopened later
// routes every run to the shard that already holds it.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/resilience"
	"repro/internal/store"
)

// DefaultShards is the shard count used when a shard DSN names none.
const DefaultShards = 4

// DefaultReplicas is the replication factor used when a shard DSN names none:
// unreplicated, matching every store created before replication existed.
const DefaultReplicas = 1

// vnodesPerShard is the number of virtual points each shard contributes to
// the consistent-hash ring. 64 points keep the expected imbalance across
// shards within a few percent while the ring stays tiny (n·64 entries).
const vnodesPerShard = 64

// manifestFile is the topology manifest's name inside the shard directory.
const manifestFile = "manifest.json"

// Manifest is the persisted topology of a sharded store. It pins everything
// run routing depends on: a store reopened with a different shard count or
// hash would look up runs on the wrong shard, so Open validates the DSN
// against the manifest and the manifest wins.
type Manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Backend string `json:"backend"` // "file" or "durable"
	Hash    string `json:"hash"`    // ring hash function identifier
	Vnodes  int    `json:"vnodes"`  // virtual points per shard
	// Replicas is the number of store copies behind each logical shard
	// (primary + followers). Absent in pre-replication manifests, which
	// load as 1. Replication does not affect run routing.
	Replicas int `json:"replicas,omitempty"`
}

// hashName identifies the ring construction; changing the hash or the vnode
// key layout must change this string so old manifests are rejected loudly
// instead of misrouting runs.
const hashName = "fnv64a-mix-ring-v1"

// ring is a consistent-hash ring: sorted virtual points, each owned by a
// shard. A run is placed on the shard owning the first point at or after the
// run ID's hash (wrapping around).
type ring struct {
	hashes []uint64
	owners []int
}

func buildRing(shards, vnodes int) ring {
	type pt struct {
		h     uint64
		shard int
	}
	pts := make([]pt, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{hash64(fmt.Sprintf("shard-%d#%d", s, v)), s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].shard < pts[j].shard
	})
	r := ring{hashes: make([]uint64, len(pts)), owners: make([]int, len(pts))}
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owners[i] = p.shard
	}
	return r
}

// owner returns the shard owning a run ID.
func (r ring) owner(runID string) int {
	h := hash64(runID)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return r.owners[i]
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a's trailing bytes barely reach the high bits, and ring placement
	// compares full 64-bit values — sequential run IDs ("run-0001", ...)
	// would cluster on a few arcs. A splitmix64-style finalizer avalanches
	// every input byte across the word.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardedStore is a provenance store partitioned across N independent
// store.Store shards by consistent hash of the run ID. It implements
// store.Backend, so every consumer of a single store — the System facade,
// the lineage executors, the CLIs, the benchmark harness — works unchanged
// on a sharded one.
type ShardedStore struct {
	dsn      string
	dir      string // "" for memory-backed stores
	backend  string // "file", "durable" or "memory"
	manifest Manifest
	ring     ring
	// replicaSets holds the R replicas behind each logical shard; the
	// resilient read path over them lives in replica.go.
	replicaSets []*replicaSet
	policy      resilience.Policy
	hedgeOn     bool

	// Per-shard probe counters (shard.probes.s<i>), resolved once at open.
	probeCounters []counterHandle
}

// primary returns shard i's primary store — the single-store fast paths and
// the write paths anchor here.
func (s *ShardedStore) primary(i int) *store.Store { return s.replicaSets[i].primary() }

// Open opens (and if necessary initializes) a sharded provenance store.
//
// DSN form:
//
//	shard:<dir>[?n=N][&r=R][&backend=file|durable]
//
// <dir> holds the topology manifest and one database per shard replica
// (shard-000.db snapshots for the file backend, shard-000/ WAL directories
// for the durable backend; followers add a .r<j> suffix: shard-000.r1.db,
// shard-000.r1/). When the manifest already exists it defines the topology;
// a conflicting ?n or ?r is an error. A fresh directory is initialized with
// N shards × R replicas (DefaultShards / DefaultReplicas when absent). With
// R > 1, followers catch up to their primary by checkpoint copy on open.
func Open(dsn string) (*ShardedStore, error) {
	dir, n, r, backend, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	man, existing, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if existing {
		if n != 0 && n != man.Shards {
			return nil, fmt.Errorf("shard: DSN requests n=%d but manifest at %s pins %d shards", n, dir, man.Shards)
		}
		if r != 0 && r != man.Replicas {
			return nil, fmt.Errorf("shard: DSN requests r=%d but manifest at %s pins %d replicas", r, dir, man.Replicas)
		}
		if backend != "" && backend != man.Backend {
			return nil, fmt.Errorf("shard: DSN requests backend=%s but manifest at %s pins %s", backend, dir, man.Backend)
		}
	} else {
		if n == 0 {
			n = DefaultShards
		}
		if r == 0 {
			r = DefaultReplicas
		}
		if backend == "" {
			backend = "file"
		}
		man = Manifest{Version: 1, Shards: n, Backend: backend, Hash: hashName, Vnodes: vnodesPerShard, Replicas: r}
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	}
	if man.Hash != hashName {
		return nil, fmt.Errorf("shard: manifest at %s uses hash %q, this build implements %q", dir, man.Hash, hashName)
	}
	dsns := make([][]string, man.Shards)
	for i := range dsns {
		dsns[i] = make([]string, man.Replicas)
		for j := range dsns[i] {
			switch man.Backend {
			case "file":
				dsns[i][j] = "file:" + filepath.Join(dir, replicaFileName(i, j))
			case "durable":
				dsns[i][j] = "durable:" + filepath.Join(dir, replicaDirName(i, j))
			default:
				return nil, fmt.Errorf("shard: manifest at %s names unknown backend %q", dir, man.Backend)
			}
		}
	}
	s, err := open(dsn, dir, man, dsns)
	if err != nil {
		return nil, err
	}
	if existing && man.Replicas > 1 {
		// Catch-up via checkpoint copy on open: a follower that missed
		// writes (opened fresh, or behind a primary that took single-run
		// writers) converges before serving reads.
		var errs []error
		for _, rs := range s.replicaSets {
			if err := rs.syncFollowers(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := errors.Join(errs...); err != nil {
			s.Close()
			return nil, fmt.Errorf("shard: follower catch-up on open: %w", err)
		}
	}
	return s, nil
}

// OpenMemory opens a fresh sharded store over n private in-memory shards —
// no directory, no manifest. Tests and benchmarks use it to compare shard
// topologies without touching disk.
func OpenMemory(n int) (*ShardedStore, error) { return OpenMemoryReplicated(n, 1) }

// OpenMemoryReplicated opens a fresh sharded store over n logical shards of
// r private in-memory replicas each. The chaos harness and the failover
// experiment use it to exercise failover without touching disk.
func OpenMemoryReplicated(n, r int) (*ShardedStore, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", n)
	}
	if r < 1 {
		return nil, fmt.Errorf("shard: replica count must be positive, got %d", r)
	}
	man := Manifest{Version: 1, Shards: n, Backend: "memory", Hash: hashName, Vnodes: vnodesPerShard, Replicas: r}
	dsns := make([][]string, n)
	for i := range dsns {
		dsns[i] = make([]string, r)
		for j := range dsns[i] {
			dsns[i][j] = store.MemoryDSN()
		}
	}
	return open(fmt.Sprintf("shard:mem?n=%d&r=%d", n, r), "", man, dsns)
}

func open(dsn, dir string, man Manifest, replicaDSNs [][]string) (*ShardedStore, error) {
	if man.Replicas < 1 {
		man.Replicas = 1
	}
	s := &ShardedStore{
		dsn:         dsn,
		dir:         dir,
		backend:     man.Backend,
		manifest:    man,
		ring:        buildRing(man.Shards, man.Vnodes),
		replicaSets: make([]*replicaSet, len(replicaDSNs)),
		policy:      resilience.Policy{Retries: 2}.Normalized(),
		hedgeOn:     true,
	}
	closeOpened := func() {
		for _, rs := range s.replicaSets {
			if rs == nil {
				continue
			}
			for _, rep := range rs.reps {
				rep.st.Close()
			}
		}
	}
	for i, sds := range replicaDSNs {
		rs := &replicaSet{owner: s, shard: i, hedge: resilience.NewHedgeTracker(0)}
		s.replicaSets[i] = rs
		for j, sd := range sds {
			st, err := store.Open(sd)
			if err != nil {
				closeOpened()
				return nil, fmt.Errorf("shard: opening shard %d replica %d: %w", i, j, err)
			}
			rs.reps = append(rs.reps, &replica{st: st, br: resilience.NewBreaker(resilience.BreakerConfig{})})
		}
	}
	s.probeCounters = perShardCounters(len(s.replicaSets))
	return s, nil
}

func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.db", i) }
func shardDirName(i int) string  { return fmt.Sprintf("shard-%03d", i) }

// replicaFileName and replicaDirName name replica j of shard i: the primary
// keeps the pre-replication names (so r=1 stores are bit-compatible with
// old ones), followers get a .r<j> suffix.
func replicaFileName(i, j int) string {
	if j == 0 {
		return shardFileName(i)
	}
	return fmt.Sprintf("shard-%03d.r%d.db", i, j)
}

func replicaDirName(i, j int) string {
	if j == 0 {
		return shardDirName(i)
	}
	return fmt.Sprintf("shard-%03d.r%d", i, j)
}

// parseDSN splits "shard:<dir>?n=N&r=R&backend=b". n == 0 / r == 0 mean
// "not given".
func parseDSN(dsn string) (dir string, n, r int, backend string, err error) {
	rest, ok := strings.CutPrefix(dsn, "shard:")
	if !ok {
		return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q (want shard:<dir>?n=N)", dsn)
	}
	rest, query, _ := strings.Cut(rest, "?")
	if rest == "" {
		return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q: empty directory", dsn)
	}
	for _, kv := range strings.Split(query, "&") {
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "n":
			n, err = strconv.Atoi(v)
			if err != nil || n < 1 {
				return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q: n must be a positive integer", dsn)
			}
		case "r":
			r, err = strconv.Atoi(v)
			if err != nil || r < 1 {
				return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q: r must be a positive integer", dsn)
			}
		case "backend":
			if v != "file" && v != "durable" {
				return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q: backend must be file or durable", dsn)
			}
			backend = v
		default:
			return "", 0, 0, "", fmt.Errorf("shard: bad DSN %q: unknown option %q", dsn, k)
		}
	}
	return rest, n, r, backend, nil
}

// IsShardDSN reports whether a DSN selects the sharded store.
func IsShardDSN(dsn string) bool { return strings.HasPrefix(dsn, "shard:") }

// DirOf returns the shard directory named by a shard DSN.
func DirOf(dsn string) (string, bool) {
	if !IsShardDSN(dsn) {
		return "", false
	}
	dir, _, _, _, err := parseDSN(dsn)
	if err != nil {
		return "", false
	}
	return dir, true
}

func loadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("shard: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("shard: manifest at %s: %w", dir, err)
	}
	if m.Shards < 1 {
		return Manifest{}, false, fmt.Errorf("shard: manifest at %s names %d shards", dir, m.Shards)
	}
	if m.Vnodes < 1 {
		m.Vnodes = vnodesPerShard
	}
	if m.Replicas < 1 {
		m.Replicas = 1 // pre-replication manifests carry no replica count
	}
	return m, true, nil
}

func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	// Atomic replacement, same discipline as the engine's checkpoints: a
	// crash between create and rename leaves either the old manifest or none.
	tmp := filepath.Join(dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// Checkpoint implements store.Checkpointer: followers first catch up to
// their primary (copying runs written through single-run writers since the
// last checkpoint), then every durable replica snapshots its own data and
// truncates its WAL; non-durable replicas are no-ops. Errors are aggregated
// across shards and replicas — one failing replica does not hide another's.
// provd's graceful drain calls this before closing a tenant.
func (s *ShardedStore) Checkpoint() error {
	var errs []error
	for i, rs := range s.replicaSets {
		if err := rs.syncFollowers(); err != nil {
			errs = append(errs, err)
		}
		for j, rep := range rs.reps {
			if err := rep.st.Checkpoint(); err != nil {
				errs = append(errs, fmt.Errorf("shard: checkpointing shard %d replica %d: %w", i, j, err))
			}
		}
	}
	return errors.Join(errs...)
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.replicaSets) }

// NumReplicas returns the replication factor.
func (s *ShardedStore) NumReplicas() int { return s.manifest.Replicas }

// Manifest returns the persisted topology.
func (s *ShardedStore) Manifest() Manifest { return s.manifest }

// ShardOf returns the index of the shard owning a run ID.
func (s *ShardedStore) ShardOf(runID string) int { return s.ring.owner(runID) }

// Shard exposes one underlying shard's primary store (tests and the
// verifier use it).
func (s *ShardedStore) Shard(i int) *store.Store { return s.primary(i) }

// Replica exposes one physical replica store (tests and the chaos harness
// use it).
func (s *ShardedStore) Replica(i, j int) *store.Store { return s.replicaSets[i].reps[j].st }

// DSN returns the sharded store's data source name.
func (s *ShardedStore) DSN() string { return s.dsn }

// Dir returns the shard directory ("" for memory-backed stores).
func (s *ShardedStore) Dir() string { return s.dir }

// Close releases every replica of every shard. Errors are annotated with
// their shard and replica and aggregated with errors.Join — closing a
// 4-shard store with two failing shards reports both, not just one.
func (s *ShardedStore) Close() error {
	var errs []error
	for i, rs := range s.replicaSets {
		for j, rep := range rs.reps {
			if err := rep.st.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard: closing shard %d replica %d: %w", i, j, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Save snapshots every file- or memory-backed shard into dir (one
// shard-<i>.db per shard) and refreshes the manifest, so Open(shard:<dir>)
// sees the saved state. Durable shards are write-ahead logged already and
// need no snapshot; Save is a no-op for them.
func (s *ShardedStore) Save(dir string) error {
	if s.backend == "durable" {
		return nil
	}
	if dir == "" {
		dir = s.dir
	}
	if dir == "" {
		return fmt.Errorf("shard: memory-backed store needs an explicit directory to save to")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// Primaries are the source of truth; followers rebuild from them by
	// catch-up copy when the saved store is reopened.
	for i := range s.replicaSets {
		if err := s.primary(i).Save(filepath.Join(dir, shardFileName(i))); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", i, err)
		}
	}
	man := s.manifest
	if man.Backend == "memory" {
		man.Backend = "file" // a saved memory store reopens from snapshots
	}
	return writeManifest(dir, man)
}
