package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"pitex"
)

const (
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps = 7
	// runSlices is how many open-loop/closed-loop slice pairs a serving
	// run alternates through.
	runSlices = 6
	// openShare is the open loop's share of each slice; the closed loop
	// takes the rest.
	openShare = 0.75
	// updateInterval is serve-zipf-writes' writer cadence: twice a second,
	// so a 26 s run holds 52 updates for a steady median.
	updateInterval = 500 * time.Millisecond
	// idleWarmup is how many batches every workload applies, untimed,
	// before its idle updates: the first ten round trips ran up to 40%
	// slower than the last ten.
	idleWarmup = 10
	// idleUpdates is how many batches every workload applies, one at a
	// time, to an idle system after its read phases.
	idleUpdates = 60
)

// servingSpec describes one /selling-points workload.
type servingSpec struct {
	zipf    bool
	distrib bool
	writes  bool
	// rate is the open-loop offered rate in requests per second, frozen
	// when the benchmark was written (see the workloads table in main.go).
	rate float64
	// closedOnly replaces the open loop with a closed loop over all of
	// --seconds, and takes the latencies from it: at half of its
	// capacity an open loop would get too few answers in a run.
	closedOnly bool
}

func runServing(ctx context.Context, cfg runConfig, spec servingSpec) (*report, error) {
	rep := newReport()
	net, model, err := generateDataset()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	admin := newHTTPClient(1)
	defer admin.CloseIdleConnections()
	start := startServe
	if spec.distrib {
		start = startDistrib
	}
	var r *rig
	var setups []float64
	for range setupReps {
		if r != nil {
			r.close()
		}
		// Each set-up starts on a collected heap, untimed.
		runtime.GC()
		t0 := time.Now()
		if r, err = start(ctx, net, model, tr, admin); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	// The writer's batches come first in the seeded update stream; the
	// idle batches every workload applies after its read phases continue
	// it, so they are valid against the network the writer left.
	nWriter := 0
	if spec.writes {
		nWriter = int(cfg.seconds/updateInterval.Seconds()) + 2
	}
	// distrib-s3 times twice as many: its round trip waits for the slowest
	// of three shard repairs, and over 60 batches its median spread by 22%
	// between runs.
	nIdle := idleUpdates
	if spec.distrib {
		nIdle *= 2
	}
	batches, err := makeUpdates(net, cfg.seed, nWriter+idleWarmup+nIdle)
	if err != nil {
		return nil, err
	}
	batches, idle := batches[:nWriter], batches[nWriter:]
	stream := newRequestStream(cfg.seed, rankedUsers(net), model.NumTags(), spec.zipf)
	load := newHTTPClient(cfg.conns)
	defer load.CloseIdleConnections()
	tgt := &target{base: r.front.base, client: load, spans: tr}
	before, err := scrape(ctx, admin, r.front.base)
	if err != nil {
		return nil, err
	}
	var w *writer
	if spec.writes {
		w = startWriter(ctx, admin, r.front.base, batches)
		tgt.genLo, tgt.genHi = w.acked.Load, w.started.Load
	}
	// The open and closed loops alternate in runSlices slices over the
	// whole run, so each samples the machine over all of it, and the
	// latencies are taken per slice: a slow spell of the shared machine
	// that catches a minority of the slices moves neither median. The
	// traced run measures its own overhead: the first half of the slices
	// pass through the wrappers without recording.
	openDur := cfg.seconds * openShare / runSlices
	if spec.closedOnly {
		openDur = 0
	}
	closedDur := time.Duration((cfg.seconds/runSlices - openDur) * float64(time.Second))
	perSlice := max(2, int(spec.rate*openDur))
	var reqs []request
	if !spec.closedOnly {
		// Drawn before the closed loops, whose draws depend on timing.
		reqs = stream.take(perSlice * runSlices)
	}
	var openSlices [][]outcome
	var open, closed, plain, traced []outcome
	var rates []float64
	var closedElapsed time.Duration
	for i := range runSlices {
		if tr != nil {
			tr.active.Store(i >= runSlices/2)
		}
		var outs []outcome
		if !spec.closedOnly {
			outs = openLoop(ctx, tgt, reqs[i*perSlice:(i+1)*perSlice], spec.rate, cfg.conns)
			openSlices = append(openSlices, outs)
			open = append(open, outs...)
		}
		c, d := closedLoop(ctx, tgt, stream, cfg.conns, closedDur)
		rates = append(rates, float64(countOK(c))/d.Seconds())
		closedElapsed += d
		closed = append(closed, c...)
		if spec.closedOnly {
			outs = c
		}
		if i < runSlices/2 {
			plain = append(plain, outs...)
		} else {
			traced = append(traced, outs...)
		}
	}
	var overhead float64
	if tr != nil {
		overhead = median(latenciesMS(traced))/median(latenciesMS(plain)) - 1
	}
	var loaded []updateOutcome
	if w != nil {
		loaded = w.stop()
	}
	after, err := scrape(ctx, admin, r.front.base)
	if err != nil {
		return nil, err
	}
	delta := diff(before, after)
	if tr != nil {
		tr.active.Store(false)
	}
	// Apply the batches the writer did not reach, untimed, so every run
	// ends at the same generation and mem_mb compares like with like. Then
	// the idle batches: update_p50_ms times those after the first
	// idleWarmup, on a server with no read load. Beside the reads their
	// round trips swung with the machine's speed by more than any bound
	// could hold; they are reported as update.loaded_ms. Each idle batch starts on a collected heap: the
	// garbage the read phases left made round trips bimodal (a repair that
	// met a collection or fresh pages took twice as long) and their median
	// jump between the modes from run to run.
	var trailing, updates []updateOutcome
	for _, b := range batches[len(loaded):] {
		trailing = append(trailing, postUpdate(ctx, admin, r.front.base, b))
	}
	for i, b := range idle {
		runtime.GC()
		u := postUpdate(ctx, admin, r.front.base, b)
		if i < idleWarmup {
			trailing = append(trailing, u)
		} else {
			updates = append(updates, u)
		}
	}

	// Untimed answer checks.
	all := append(append([]outcome(nil), open...), closed...)
	var identical float64
	switch {
	case spec.distrib:
		ref, err := pitex.NewEngine(net, model, distribOptions())
		if err != nil {
			return nil, err
		}
		ac := &approxChecker{ref: ref, epsilon: ref.Options().Epsilon, tags: model.NumTags()}
		wrong, same, answered := ac.check(all)
		rep.failed = wrong
		identical = float64(same) / float64(max(answered, 1))
		rep.metrics["rrindex.index_mb"] = float64(ref.IndexMemoryBytes()) / (1 << 20)
	default:
		refs := []*pitex.Engine{r.proto}
		for i := range w.ackedCount() {
			next, _, err := refs[i].ApplyUpdates(batches[i].batch())
			if err != nil {
				return nil, fmt.Errorf("reference update %d: %w", i, err)
			}
			refs = append(refs, next)
		}
		rep.failed = newExactChecker(refs).check(all, cfg.conns)
		rep.metrics["rrindex.build_s"] = r.proto.IndexBuildTime.Seconds()
		rep.metrics["rrindex.index_mb"] = float64(r.proto.IndexMemoryBytes()) / (1 << 20)
	}
	rep.attempted = len(all) + len(loaded) + len(trailing) + len(updates)
	var shed int
	for _, o := range all {
		if !o.ok() {
			rep.failed++
			if o.Status == http.StatusServiceUnavailable {
				shed++
			}
			if rep.failed <= 5 {
				rep.notes = append(rep.notes, fmt.Sprintf("failed: %v", o.Err))
			}
		}
	}
	var updateRT, repair, swap, repaired, loadedRT []float64
	for i, u := range slices.Concat(updates, loaded, trailing) {
		if u.err != nil {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("update failed: %v", u.err))
			continue
		}
		if i >= len(updates) {
			if i < len(updates)+len(loaded) {
				loadedRT = append(loadedRT, durMS(u.rt))
			}
			continue
		}
		updateRT = append(updateRT, durMS(u.rt))
		repair = append(repair, durMS(u.repair))
		swap = append(swap, durMS(u.rt-u.repair))
		if u.total > 0 {
			repaired = append(repaired, float64(u.repaired)/float64(u.total))
		}
	}

	// The latency percentiles are medians over the open-loop slices of
	// each slice's percentile; distrib-s3 pools its closed loop, whose
	// slices hold too few answers for a p90 of their own.
	latSlices := openSlices
	if spec.closedOnly {
		latSlices = [][]outcome{closed}
	}
	answeredClosed := countOK(closed)
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["query_p50_ms"] = sliceQuantile(latSlices, 0.5)
	m["query_p90_ms"] = sliceQuantile(latSlices, 0.9)
	m["capacity_qps"] = median(rates)
	m["update_p50_ms"] = median(updateRT)

	m["serve.cache_hit_frac"] = (delta["pitex_cache_hits_total"] + delta["pitex_cache_deduped_total"]) /
		max(1, delta["pitex_cache_hits_total"]+delta["pitex_cache_deduped_total"]+delta["pitex_cache_misses_total"])
	m["serve.shed_frac"] = float64(shed) / float64(max(1, len(all)))
	var elapsed []float64
	for _, o := range all {
		if o.ok() && !o.Ans.Cached {
			elapsed = append(elapsed, durMS(o.Ans.elapsed()))
		}
	}
	m["engine.query_ms"] = median(elapsed)
	misses := "pitex_cache_misses_total"
	m["engine.expansions_per_query"] = delta.ratio("pitex_frontier_expansions_total", misses)
	m["engine.full_sets_per_query"] = delta.ratio("pitex_full_sets_estimated_total", misses)
	m["engine.early_stop_frac"] = delta.ratio("pitex_estimator_early_stops_total", "pitex_full_sets_estimated_total")
	m["engine.graphs_skipped_per_query"] = delta.ratio("pitex_estimator_graphs_skipped_total", misses)
	delta["probes"] = delta["pitex_probe_cache_hits_total"] + delta["pitex_probe_cache_misses_total"]
	m["engine.probe_hit_frac"] = delta.ratio("pitex_probe_cache_hits_total", "probes")
	m["engine.bound_memo_hits_per_query"] = delta.ratio("pitex_bound_memo_hits_total", misses)
	m["update.repair_ms"] = median(repair)
	m["update.swap_ms"] = median(swap)
	m["update.repaired_frac"] = median(repaired)
	m["update.loaded_ms"] = median(loadedRT)
	m["gen.late_ms"] = mean(lateness(open))
	m["trace.overhead_frac"] = overhead
	if spec.distrib {
		m["distrib.identical_frac"] = identical
		m["distrib.hedge_frac"] = delta["pitex_remote_hedges_total"] /
			max(1, delta["pitex_remote_scatters_total"]*distribShards)
		var slowest time.Duration
		for _, d := range r.shardBuild {
			slowest = max(slowest, d)
		}
		m["shard.build_s"] = slowest.Seconds()
	}
	if tr != nil {
		spanLayers(m, tr.snapshot())
		rep.notes = append(rep.notes, selfTimeTable(tr.snapshot())...)
		if err := writeSpans(cfg, tr); err != nil {
			return nil, err
		}
	}

	lat := latenciesMS(latSlices[0])
	hp := highestPercentile(len(lat))
	if !spec.closedOnly {
		rep.notes = append(rep.notes, fmt.Sprintf("open loop: %d requests offered at %.1f/s over %d connections, in %d slices", len(open), spec.rate, cfg.conns, runSlices))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("dataset: %d users, %d edges, %d tags; cache %d entries", net.NumUsers(), net.NumEdges(), model.NumTags(), cacheEntries),
		fmt.Sprintf("closed loop: %d clients, %d answers in %.2f s (%.1f/s overall), latency p50 %.3f ms",
			cfg.conns, answeredClosed, closedElapsed.Seconds(), float64(answeredClosed)/closedElapsed.Seconds(), median(latenciesMS(closed))),
		fmt.Sprintf("query latency from %d slices of %d samples; highest percentile with >=10 beyond it: p%g, median over slices %.3f ms", len(latSlices), len(lat), 100*hp, sliceQuantile(latSlices, hp)),
		fmt.Sprintf("updates: %d beside the reads (median round trip %.3f ms), %d idle (median %.3f ms); cache hits+deduped %.3f of lookups",
			len(loaded), median(loadedRT), len(updates), median(updateRT), m["serve.cache_hit_frac"]),
		fmt.Sprintf("error_frac = %d/%d = %.4f (failed, refused or wrong)", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted)),
	)
	// Heap after the run, once the benchmark drops its own records.
	open, closed, all, plain, traced, openSlices, latSlices = nil, nil, nil, nil, nil, nil, nil
	m["mem_mb"] = heapMB()
	return rep, nil
}

// spanLayers derives the span-based per-layer metrics.
func spanLayers(m map[string]float64, spans []span) {
	self := selfTimes(spans)
	m["http.transport_ms"] = medianDur(self[layerClient])
	m["serve.handler_ms"] = medianDur(self[layerServe])
	byID := make(map[uint64]span, len(spans))
	kids := make(map[uint64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var admission []time.Duration
	var engineTime, estimateTime time.Duration
	var nEngine, nEstimate int
	var estimate, wire, shard []time.Duration
	var shardBytes int64
	for _, s := range spans {
		switch s.Name {
		case layerServe:
			for _, k := range kids[s.ID] {
				if k.Name == layerEngine {
					admission = append(admission, s.dur()-coveredWithin(s, kids[s.ID]))
				}
			}
		case layerEngine:
			nEngine++
			engineTime += s.dur()
		case layerEstimate:
			nEstimate++
			estimateTime += s.dur()
			estimate = append(estimate, s.dur())
			var slowest time.Duration
			for _, k := range kids[s.ID] {
				slowest = max(slowest, k.dur())
			}
			wire = append(wire, s.dur()-slowest)
		case layerShard:
			shard = append(shard, s.dur())
			shardBytes += s.Bytes
		}
	}
	m["serve.admission_ms"] = medianDur(admission)
	if nEngine > 0 {
		m["distrib.estimates_per_query"] = float64(nEstimate) / float64(nEngine)
		m["shard.bytes_per_query"] = float64(shardBytes) / float64(nEngine)
	}
	if engineTime > 0 {
		m["distrib.estimate_share"] = float64(estimateTime) / float64(engineTime)
	}
	m["distrib.estimate_ms"] = medianDur(estimate)
	m["distrib.wire_ms"] = medianDur(wire)
	m["shard.handler_ms"] = medianDur(shard)
}

func medianDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = durMS(d)
	}
	return median(ms)
}

// heapMB is the Go heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// updateOutcome is one /admin/update round trip.
type updateOutcome struct {
	rt, repair      time.Duration
	repaired, total int
	generation      uint64
	err             error
}

func postUpdate(ctx context.Context, c *http.Client, base string, b updateBody) updateOutcome {
	body, err := json.Marshal(b)
	if err != nil {
		return updateOutcome{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admin/update", bytes.NewReader(body))
	if err != nil {
		return updateOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return updateOutcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	u := updateOutcome{rt: time.Since(start), err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		u.err = fmt.Errorf("update: status %d: %s", resp.StatusCode, data)
	}
	if u.err != nil {
		return u
	}
	var out struct {
		Generation     uint64 `json:"generation"`
		GraphsRepaired int    `json:"graphs_repaired"`
		GraphsTotal    int    `json:"graphs_total"`
		Elapsed        string `json:"elapsed"`
	}
	if u.err = json.Unmarshal(data, &out); u.err != nil {
		return u
	}
	u.repair, u.err = time.ParseDuration(out.Elapsed)
	u.repaired, u.total, u.generation = out.GraphsRepaired, out.GraphsTotal, out.Generation
	return u
}

// writer posts the seeded update batches on a fixed schedule, one at a
// time, beside the read load.
type writer struct {
	// started counts batches sent; acked is the generation of the last
	// batch the server confirmed.
	started, acked atomic.Uint64
	quit           chan struct{}
	done           chan struct{}
	outs           []updateOutcome // written by the writer goroutine until done closes
}

func startWriter(ctx context.Context, c *http.Client, base string, batches []updateBody) *writer {
	w := &writer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		start := time.Now()
		for i, b := range batches {
			select {
			case <-ctx.Done():
				return
			case <-w.quit:
				return
			case <-time.After(time.Until(start.Add(time.Duration(i+1) * updateInterval))):
			}
			w.started.Add(1)
			u := postUpdate(ctx, c, base, b)
			if u.err == nil {
				w.acked.Store(u.generation)
			}
			w.outs = append(w.outs, u)
		}
	}()
	return w
}

// stop lets an update in flight finish, ends the writer, and returns its
// updates.
func (w *writer) stop() []updateOutcome {
	close(w.quit)
	<-w.done
	return w.outs
}

// ackedCount is how many batches the server applied; 0 for no writer.
func (w *writer) ackedCount() int {
	if w == nil {
		return 0
	}
	return int(w.acked.Load())
}
