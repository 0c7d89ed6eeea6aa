package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/reldb"
	"repro/internal/resilience"
	"repro/internal/sqlike"
	"repro/internal/store"
	"repro/internal/value"
)

// This file is the chaos harness for the replicated shard layer: randomized
// replica kill/stall schedules applied while concurrent multi-run queries
// execute. The availability contract under test is the tentpole's: as long
// as at least one replica of every shard survives, every query succeeds and
// its answer is byte-identical to the unreplicated baseline; when a whole
// shard is down, -partial queries return the surviving shards' rows with the
// Degraded marker while non-partial queries fail with a joined,
// shard-attributed error matching resilience.ErrUnavailable.

// chaosSchedules returns the chaos schedule count, overridable via
// CHAOS_SCHEDULES for the nightly long sweep.
func chaosSchedules(def int) int {
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// chaosSeed returns the schedule seed — random per process so the sweep
// covers fresh schedules, logged by the caller and pinnable via CHAOS_SEED
// for replay.
func chaosSeed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return time.Now().UnixNano()
}

// shardWaitNoLeaks polls until the goroutine count returns to the baseline;
// abandoned replica attempts must all drain once stalls are released.
func shardWaitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosPolicy is tuned for the harness: fail over off a stalled replica
// quickly, but leave the operation bound generous enough that a query under
// -race on a loaded CI box never trips it while a healthy replica remains.
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		AttemptTimeout: 25 * time.Millisecond,
		OpTimeout:      30 * time.Second,
		Retries:        2,
		Backoff:        time.Millisecond,
	}
}

// chaosRunning reports whether the fault schedule is still playing.
func chaosRunning(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
		return true
	}
}

// TestChaosReplicaFailover kills and stalls single replicas — at most one
// victim at any moment, so every shard always keeps a live replica — while
// concurrent multi-run queries execute. Every query must succeed and match
// the unreplicated single-store baseline exactly.
func TestChaosReplicaFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized chaos test")
	}
	const (
		l, d, nRuns = 4, 3, 10
		shards, r   = 4, 2
	)
	traces := testbedTraces(t, l, d, nRuns)
	wf := gen.Testbed(l)
	runIDs := make([]string, len(traces))
	for i, tr := range traces {
		runIDs[i] = tr.RunID
	}
	focus := lineage.NewFocus(gen.ListGenName)
	idx := value.Ix(1, 1)

	single, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.IngestTraces(context.Background(), traces, store.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	ipSingle, err := lineage.NewIndexProj(single, wf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ipSingle.LineageMultiRun(runIDs, gen.FinalName, "product", idx, focus)
	if err != nil {
		t.Fatal(err)
	}

	seed := chaosSeed()
	t.Logf("chaos seed %d (replay with CHAOS_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))
	failoversBefore := obsFailover.Load()

	for sched := 0; sched < chaosSchedules(4); sched++ {
		baseline := runtime.NumGoroutine()
		sh, err := OpenMemoryReplicated(shards, r)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetPolicy(chaosPolicy())
		sh.SetBreakerConfig(resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 50 * time.Millisecond})
		if err := sh.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
		ip, err := lineage.NewIndexProj(sh, wf)
		if err != nil {
			t.Fatal(err)
		}

		// One chaos goroutine, one victim at a time: pick a random replica,
		// kill it or stall it for a few milliseconds, undo, repeat. Because
		// faults never overlap, every shard keeps >= 1 live replica and the
		// availability contract demands zero failed queries.
		type fault struct {
			shard, rep  int
			stall       bool
			holdMs      int
			settleDelay int
		}
		var faults []fault
		for i := 0; i < 12; i++ {
			faults = append(faults, fault{
				shard:       rng.Intn(shards),
				rep:         rng.Intn(r),
				stall:       rng.Intn(2) == 0,
				holdMs:      1 + rng.Intn(15),
				settleDelay: rng.Intn(3),
			})
		}
		stop, faultsDone := make(chan struct{}), make(chan struct{})
		var chaosWG sync.WaitGroup
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			defer close(faultsDone)
			for _, f := range faults {
				select {
				case <-stop:
					return
				default:
				}
				if f.stall {
					release := sh.StallReplica(f.shard, f.rep)
					time.Sleep(time.Duration(f.holdMs) * time.Millisecond)
					release()
				} else {
					sh.KillReplica(f.shard, f.rep)
					time.Sleep(time.Duration(f.holdMs) * time.Millisecond)
					sh.ReviveReplica(f.shard, f.rep)
				}
				time.Sleep(time.Duration(f.settleDelay) * time.Millisecond)
			}
		}()

		const queriers = 4
		errCh := make(chan error, queriers)
		var qWG sync.WaitGroup
		for q := 0; q < queriers; q++ {
			qWG.Add(1)
			opt := lineage.MultiRunOptions{
				Parallelism: 1 + rng.Intn(3),
				BatchSize:   rng.Intn(3),
				ColScan:     []lineage.ColScanMode{lineage.ColScanAuto, lineage.ColScanOn, lineage.ColScanOff}[rng.Intn(3)],
			}
			go func(q int, opt lineage.MultiRunOptions) {
				defer qWG.Done()
				// At least five queries, and keep querying until the whole fault
				// schedule has played: queries that finish before the first fault
				// lands exercise nothing (and the sweep's failover check below
				// would depend on how fast a probe happens to be).
				for i := 0; i < 5 || chaosRunning(faultsDone); i++ {
					got, err := ip.LineageMultiRunParallel(context.Background(), runIDs,
						gen.FinalName, "product", idx, focus, opt)
					if err != nil {
						errCh <- fmt.Errorf("schedule %d querier %d iter %d (%+v): %v", sched, q, i, opt, err)
						return
					}
					if !got.Equal(want) {
						errCh <- fmt.Errorf("schedule %d querier %d iter %d (%+v): answer diverged from baseline", sched, q, i, opt)
						return
					}
					if got.Degraded() {
						errCh <- fmt.Errorf("schedule %d querier %d iter %d: degraded answer with a live replica per shard", sched, q, i)
						return
					}
				}
			}(q, opt)
		}
		qWG.Wait()
		close(stop)
		chaosWG.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
		if t.Failed() {
			sh.Close()
			t.FailNow()
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		shardWaitNoLeaks(t, baseline)
	}
	if got := obsFailover.Load(); got == failoversBefore {
		t.Errorf("chaos sweep recorded no shard.failover events (still %d)", got)
	}
}

// TestChaosWholeShardDown pins the degraded-mode contract: with every
// replica of one shard dead, a Partial multi-run query answers from the
// surviving shards and marks exactly the dead shard's runs Degraded, while
// the same query without Partial fails with a joined, shard-attributed error
// matching resilience.ErrUnavailable.
func TestChaosWholeShardDown(t *testing.T) {
	const (
		l, d, nRuns = 4, 3, 12
		shards, r   = 4, 2
	)
	traces := testbedTraces(t, l, d, nRuns)
	wf := gen.Testbed(l)
	runIDs := make([]string, len(traces))
	for i, tr := range traces {
		runIDs[i] = tr.RunID
	}
	focus := lineage.NewFocus(gen.ListGenName)
	idx := value.Ix(1, 1)

	sh, err := OpenMemoryReplicated(shards, r)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.SetPolicy(chaosPolicy())
	sh.SetBreakerConfig(resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 50 * time.Millisecond})
	if err := sh.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}

	// Pick a victim shard that owns some but not all runs, so the partial
	// answer has both degraded and surviving runs.
	byShard := make(map[int][]string)
	for _, run := range runIDs {
		i := sh.ShardOf(run)
		byShard[i] = append(byShard[i], run)
	}
	dead := -1
	for i, runs := range byShard {
		if len(runs) > 0 && len(runs) < len(runIDs) {
			dead = i
			break
		}
	}
	if dead < 0 {
		t.Fatalf("no shard owns a strict subset of %d runs: %v", len(runIDs), byShard)
	}
	var survivors []string
	for _, run := range runIDs {
		if sh.ShardOf(run) != dead {
			survivors = append(survivors, run)
		}
	}
	for j := 0; j < r; j++ {
		sh.KillReplica(dead, j)
	}

	ip, err := lineage.NewIndexProj(sh, wf)
	if err != nil {
		t.Fatal(err)
	}

	// Non-partial: the whole query fails, the error names the dead shard and
	// matches the resilience sentinel through the join.
	_, err = ip.LineageMultiRunParallel(context.Background(), runIDs,
		gen.FinalName, "product", idx, focus, lineage.MultiRunOptions{Parallelism: 2})
	if err == nil {
		t.Fatal("multi-run query over a dead shard succeeded without Partial")
	}
	if !errors.Is(err, resilience.ErrUnavailable) {
		t.Fatalf("whole-shard-down error = %v, want errors.Is(resilience.ErrUnavailable)", err)
	}
	if want := fmt.Sprintf("shard %d", dead); !strings.Contains(err.Error(), want) {
		t.Fatalf("whole-shard-down error %q does not attribute %q", err, want)
	}

	// Partial: the surviving shards' answer, byte-identical to querying the
	// survivors alone, with exactly the dead shard's runs marked Degraded.
	res, err := ip.LineageMultiRunParallel(context.Background(), runIDs,
		gen.FinalName, "product", idx, focus, lineage.MultiRunOptions{Parallelism: 2, Partial: true})
	if err != nil {
		t.Fatalf("Partial query over a dead shard: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("Partial answer over a dead shard is not marked Degraded")
	}
	wantDegraded := append([]string(nil), byShard[dead]...)
	sort.Strings(wantDegraded)
	if got := res.DegradedRuns(); !equalStrings(got, wantDegraded) {
		t.Fatalf("DegradedRuns() = %v, want %v", got, wantDegraded)
	}
	want, err := ip.LineageMultiRunParallel(context.Background(), survivors,
		gen.FinalName, "product", idx, focus, lineage.MultiRunOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatal("Partial answer diverged from querying the surviving runs directly")
	}

	// Revival restores full answers: no sticky degraded state.
	for j := 0; j < r; j++ {
		sh.ReviveReplica(dead, j)
	}
	time.Sleep(60 * time.Millisecond) // let the breakers' open windows lapse
	full, err := ip.LineageMultiRunParallel(context.Background(), runIDs,
		gen.FinalName, "product", idx, focus, lineage.MultiRunOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("query after revival: %v", err)
	}
	if full.Degraded() {
		t.Fatal("answer after revival still marked Degraded")
	}
}

// TestScatterStallRespectsDeadline is the scatter-cancellation coverage: a
// deterministic faultfs stall pinning one shard's disk mid-query must not
// block ExecuteMultiRun past its context deadline and must not leak
// goroutines once the stall is released (the abandoned attempt drains into
// its buffered channel). Column segments load lazily from disk at query
// time, which is what puts the stalled VFS on the query path.
func TestScatterStallRespectsDeadline(t *testing.T) {
	const vfsName = "shard-chaos-stall"
	dir := t.TempDir()
	dsn := "shard:" + dir + "?n=2&backend=durable"
	sh, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	traces := testbedTraces(t, 3, 2, 8)
	runIDs := make([]string, len(traces))
	for i, tr := range traces {
		runIDs[i] = tr.RunID
	}
	if err := sh.IngestTraces(context.Background(), traces, store.IngestOptions{Parallelism: 2}); err != nil {
		sh.Close()
		t.Fatal(err)
	}
	if err := sh.Checkpoint(); err != nil { // persist column segments
		sh.Close()
		t.Fatal(err)
	}
	wf := gen.Testbed(3)
	focus := lineage.NewFocus(gen.ListGenName)
	ipWarm, err := lineage.NewIndexProj(sh, wf)
	if err != nil {
		sh.Close()
		t.Fatal(err)
	}
	want, err := ipWarm.LineageMultiRun(runIDs, gen.FinalName, "product", value.Ix(1, 1), focus)
	if err != nil {
		sh.Close()
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with shard 1's store behind a fault-injecting VFS. The segment
	// cache starts cold, so the first colscan probe reads shard 1's segments
	// through the (about to be stalled) filesystem.
	ffs := faultfs.New(reldb.OSFS{})
	sqlike.RegisterVFS(vfsName, ffs)
	defer sqlike.RegisterVFS(vfsName, nil)
	man, existing, err := loadManifest(dir)
	if err != nil || !existing {
		t.Fatalf("manifest after close: %v (existing=%v)", err, existing)
	}
	dsns := [][]string{
		{"durable:" + filepath.Join(dir, shardDirName(0))},
		{"durablefs:" + vfsName + ":" + filepath.Join(dir, shardDirName(1))},
	}
	sh2, err := open(dsn, dir, man, dsns)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ip, err := lineage.NewIndexProj(sh2, wf)
	if err != nil {
		sh2.Close()
		t.Fatal(err)
	}

	ffs.StallAt(1) // every subsequent disk operation blocks until Release
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = ip.LineageMultiRunParallel(ctx, runIDs, gen.FinalName, "product", value.Ix(1, 1), focus,
		lineage.MultiRunOptions{Parallelism: 2, ColScan: lineage.ColScanOn})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query against a stalled shard = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %s to honor a 250ms deadline", elapsed)
	}

	// Releasing the stall drains the abandoned attempt; the store stays
	// usable and answers exactly as before.
	ffs.Release()
	shardWaitNoLeaks(t, baseline)
	got, err := ip.LineageMultiRunParallel(context.Background(), runIDs, gen.FinalName, "product",
		value.Ix(1, 1), focus, lineage.MultiRunOptions{Parallelism: 2, ColScan: lineage.ColScanOn})
	if err != nil {
		sh2.Close()
		t.Fatalf("query after release: %v", err)
	}
	if !got.Equal(want) {
		sh2.Close()
		t.Fatal("answer after release diverged from the pre-stall baseline")
	}
	if err := sh2.Close(); err != nil {
		t.Fatal(err)
	}
	shardWaitNoLeaks(t, baseline)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
