package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pitex"
	"pitex/analytics"
)

// sweepCohortSize is the seeded cohort of sweep-delaymat: 100 users, so
// the per-user p90 keeps ten samples beyond it, and few enough that a
// 26 s run holds about three cycles of sweeps.
const sweepCohortSize = 100

// minLatencyPasses is the fewest Workers=1 passes a run makes, so that
// the median over passes passes over one pass a slow spell of the machine
// caught.
const minLatencyPasses = 3

// throughputPasses is how many Workers=nproc sweeps follow each
// Workers=1 sweep. In one run on a shared 2-core machine the
// Workers=nproc sweep time swung by up to 1.6x from one sweep to the
// next, against 20% at Workers=1, so the run holds twice as many of them;
// their total time about matches the Workers=1 sweeps'.
const throughputPasses = 2

// sweepUpdates is how many batches the sweep applies to its idle DelayMat
// engine: twice the serving workloads' count, because with 60 the median
// moved by 20% between seeds; they cost about 15 ms each.
const sweepUpdates = 2 * idleUpdates

// runSweep times analytics.Run over a fixed seeded cohort with DELAYMAT.
// Workers=1 sweeps give per-user latencies and the reference leaderboard;
// Workers=nproc sweeps give the throughput, and each must reproduce the
// reference exactly. The two kinds alternate until --seconds is spent, so
// both sample the machine over the whole run; capacity_qps is the median
// sweep's users per second.
func runSweep(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	net, model, err := generateDataset()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var en *pitex.Engine
	var setups []float64
	for range setupReps {
		// Each set-up starts on a collected heap, untimed.
		runtime.GC()
		t0 := time.Now()
		if err := tr.timed("index", func() (err error) {
			en, err = pitex.NewEngine(net, model, engineOptions(pitex.StrategyDelay))
			return err
		}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	users := cohort(cfg.seed, net, sweepCohortSize)
	t0 := time.Now()

	// One user per chunk, so each progress report closes one query.
	sweep := func(workers int, chunkMS *[]float64) (*analytics.Leaderboard, time.Duration, error) {
		var mu sync.Mutex
		start := time.Now()
		last := start
		lb, err := analytics.Run(ctx, en, analytics.Options{
			Workers: workers, ChunkSize: 1, Users: users,
			OnProgress: func(p analytics.Progress) {
				now := time.Now()
				mu.Lock()
				defer mu.Unlock()
				if p.ChunksDone > 0 {
					*chunkMS = append(*chunkMS, durMS(now.Sub(last)))
					tr.record(span{Name: layerChunk, ID: tr.newID(), Start: last, End: now})
				}
				last = now
			},
		})
		return lb, time.Since(start), err
	}
	// passes[i][j] is user j's latency in the i-th Workers=1 pass; the
	// first pass's leaderboard is the reference.
	var passes [][]float64
	var want *analytics.Leaderboard
	var chunks, rates []float64
	var swept, mismatches int
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// A run ends with the cycle that ends nearest to --seconds.
	for cycle := time.Duration(0); len(passes) < minLatencyPasses || time.Since(t0)+cycle/2 < budget; {
		start := time.Now()
		var latency []float64
		lb, _, err := sweep(1, &latency)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = lb
		} else {
			mismatches += leaderboardMismatches(lb, want)
		}
		passes = append(passes, latency)
		for range throughputPasses {
			lb, d, err := sweep(cfg.conns, &chunks)
			if err != nil {
				return nil, err
			}
			rates = append(rates, float64(len(users))/d.Seconds())
			swept += len(users)
			mismatches += leaderboardMismatches(lb, want)
		}
		cycle = time.Since(start)
	}
	// Each latency percentile is the median over the passes of the
	// pass's percentile, so a pass a slow spell of the machine caught
	// moves neither.
	passQuantile := func(q float64) float64 {
		var qs []float64
		for _, p := range passes {
			qs = append(qs, quantile(p, q))
		}
		return median(qs)
	}
	memMB := heapMB()

	batches, err := makeUpdates(net, cfg.seed, idleWarmup+sweepUpdates)
	if err != nil {
		return nil, err
	}
	var updateRT, repair, repaired []float64
	cur := en
	// Each batch starts on a collected heap, as the serving workloads' idle
	// batches do.
	for i, b := range batches {
		runtime.GC()
		start := time.Now()
		next, st, err := cur.ApplyUpdates(b.batch())
		rt := time.Since(start)
		if err != nil {
			return nil, err
		}
		cur = next
		if i < idleWarmup {
			continue
		}
		updateRT = append(updateRT, durMS(rt))
		repair = append(repair, durMS(st.Elapsed))
		repaired = append(repaired, st.RepairedFraction())
	}

	rep.attempted = len(passes)*len(users) + swept + len(batches)
	rep.failed = mismatches + want.Errors
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["query_p50_ms"] = passQuantile(0.5)
	m["query_p90_ms"] = passQuantile(0.9)
	m["capacity_qps"] = median(rates)
	m["update_p50_ms"] = median(updateRT)
	m["mem_mb"] = memMB
	m["engine.query_ms"] = passQuantile(0.5)
	m["rrindex.build_s"] = en.IndexBuildTime.Seconds()
	m["rrindex.index_mb"] = float64(en.IndexMemoryBytes()) / (1 << 20)
	m["analytics.chunk_ms"] = median(chunks)
	m["update.repair_ms"] = median(repair)
	m["update.repaired_frac"] = median(repaired)
	if tr != nil {
		rep.notes = append(rep.notes, selfTimeTable(tr.snapshot())...)
		if err := writeSpans(cfg, tr); err != nil {
			return nil, err
		}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("dataset: %d users, %d edges, %d tags; cohort %d users, k=3", net.NumUsers(), net.NumEdges(), model.NumTags(), len(users)),
		fmt.Sprintf("latency sweeps (Workers=1, %d passes of %d users, median over passes): p%g = %.3f ms, slowest user %.3f ms",
			len(passes), len(users), 100*highestPercentile(len(users)), passQuantile(highestPercentile(len(users))), passQuantile(1)),
		fmt.Sprintf("throughput sweeps (Workers=%d): %d users, median pass %.2f users/s (sweep_users_per_s)", cfg.conns, swept, m["capacity_qps"]),
		fmt.Sprintf("error_frac = %d/%d = %.4f (leaderboard rows differing from the Workers=1 sweep, failed queries)", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted)),
	)
	return rep, nil
}
