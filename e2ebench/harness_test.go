package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (ten samples beyond it)", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

// A handler that stalls 200 ms on the first request must charge the
// stall to the open-loop requests queued behind it, and gen.late_ms
// (the mean lateness) must show it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"tag_ids": []int{1, 2}, "influence": 1.5, "elapsed": "1ms"})
	}))
	defer srv.Close()
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	tgt := &target{base: srv.URL, client: client}
	reqs := newRequestStream(1, identity(100), 10, false).take(20)
	outs := openLoop(context.Background(), tgt, reqs, 100, 1) // one due every 10 ms, one connection
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d failed: %v", i, o.Err)
		}
	}
	// Request 5 was due at 50 ms but could not be sent before the stalled
	// first request returned at ~200 ms.
	if got := outs[5].latency(); got < 140*time.Millisecond {
		t.Errorf("request 5 latency %v, want the ~150 ms it waited behind the stall", got)
	}
	if got := outs[5].Done.Sub(outs[5].Sent); got > 100*time.Millisecond {
		t.Errorf("request 5 service time %v; the stall should show as lateness, not service", got)
	}
	if late := mean(lateness(outs)); late < 50 {
		t.Errorf("gen.late_ms = %.1f, want it to show the 200 ms stall", late)
	}
	// Without a stall the generator keeps to its schedule.
	calls.Store(1)
	outs = openLoop(context.Background(), tgt, reqs, 100, 1)
	if late := mean(lateness(outs)); late > 20 {
		t.Errorf("gen.late_ms = %.1f without a stall, want near 0", late)
	}
}

// identity lists 0..n-1, a ranking for streams over synthetic users.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Uniform users come one per out-degree stratum in every block of
// userStrata draws.
func TestUniformUsersCoverEveryStratum(t *testing.T) {
	const users = 7500
	s := newRequestStream(3, identity(users), 50, false)
	for block := range 3 {
		seen := make([]int, userStrata)
		for range userStrata {
			seen[s.next().User*userStrata/users]++
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("block %d: stratum %d drawn %d times, want once", block, i, n)
			}
		}
	}
}

func TestSeededStreamsRepeatPerSeed(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a := newRequestStream(1, identity(7500), 50, zipf).take(400)
		b := newRequestStream(1, identity(7500), 50, zipf).take(400)
		c := newRequestStream(2, identity(7500), 50, zipf).take(400)
		if !slices.Equal(a, b) {
			t.Errorf("zipf=%v: request stream differs for the same seed", zipf)
		}
		if slices.Equal(a, c) {
			t.Errorf("zipf=%v: request stream identical across seeds", zipf)
		}
		var m3, prefix, k2 int
		for _, r := range a {
			switch {
			case r.Prefix >= 0:
				prefix++
			case r.M == 3:
				m3++
			}
			if r.K == 2 {
				k2++
			}
		}
		if m3 != 100 || prefix != 40 || k2 != 120 {
			t.Errorf("zipf=%v: 400 requests hold %d m=3, %d prefix, %d k=2; want 100, 40, 120", zipf, m3, prefix, k2)
		}
	}
	net, _, err := generateDataset()
	if err != nil {
		t.Fatal(err)
	}
	if c := cohort(1, net, 50); !slices.Equal(c, cohort(1, net, 50)) || slices.Equal(c, cohort(2, net, 50)) {
		t.Error("cohort must repeat for one seed and differ across seeds")
	} else if len(slices.Compact(slices.Sorted(slices.Values(c)))) != 50 {
		t.Error("cohort users must be distinct")
	}
	u1, err := makeUpdates(net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	u1b, _ := makeUpdates(net, 1, 3)
	u2, _ := makeUpdates(net, 2, 3)
	j := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	if j(u1) != j(u1b) {
		t.Error("update stream differs for the same seed")
	}
	if j(u1) == j(u2) {
		t.Error("update stream identical across seeds")
	}
	for i, b := range u1 {
		if n := len(b.InsertEdges) + len(b.DeleteEdges) + len(b.SetEdges); n != opsPerUpdate {
			t.Errorf("batch %d holds %d operations, want %d", i, n, opsPerUpdate)
		}
	}
	// Every batch applies cleanly to the network its predecessors left.
	long, err := makeUpdates(net, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range long {
		if net, _, err = net.ApplyBatch(b.batch()); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "parent", ID: 1, Start: at(0), End: at(100)},
		{Name: "child", ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "child", ID: 3, Parent: 1, Start: at(30), End: at(60)},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, Start: at(90), End: at(120)}, // sticks out
	}
	self := selfTimes(spans)
	if got := self["parent"][0]; got != 40*time.Millisecond {
		t.Errorf("parent self time %v, want 40ms (100 minus the 60 ms union of 10-60 and 90-100)", got)
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames(false)) {
		t.Errorf("BENCHMARK.json workloads %v, program lists %v", names, workloadNames(false))
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", b.PerLayer, perLayer)
	}
}

// Every workload runs end to end, answers correctly, and reports every
// metric of its mode: untraced, end-to-end metrics all above 0; traced,
// the per-layer metrics the workload exercises.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 5, seconds: 1, trace: trace, conns: 2}
			if trace {
				t.Setenv("CARGO_TARGET_DIR", t.TempDir())
			}
			rep, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rep.failed, rep.attempted, rep.notes)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := rep.metrics[d.Name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, v)
					}
				}
				continue
			}
			want := map[string][]string{
				"serve-uniform":     {"engine.query_ms", "serve.handler_ms", "http.transport_ms", "rrindex.build_s"},
				"serve-zipf-writes": {"serve.cache_hit_frac", "update.repair_ms", "update.swap_ms"},
				"distrib-s3":        {"distrib.estimates_per_query", "distrib.estimate_share", "distrib.wire_ms", "shard.handler_ms", "shard.bytes_per_query", "shard.build_s", "distrib.identical_frac"},
				"sweep-delaymat":    {"analytics.chunk_ms", "engine.query_ms", "rrindex.build_s"},
			}[w.name]
			for _, name := range want {
				if v := rep.metrics[name]; !(v > 0) {
					t.Errorf("%s traced: %s = %v, want > 0", w.name, name, v)
				}
			}
		}
	}
}

// The latency of a run is the median over slices of each slice's
// percentile, so one slow slice in three moves it not at all.
func TestSliceQuantile(t *testing.T) {
	slice := func(ms float64) []outcome {
		var outs []outcome
		for i := range 100 {
			d := time.Duration((ms + float64(i)/100) * float64(time.Millisecond))
			outs = append(outs, outcome{Status: http.StatusOK, Sent: time.Unix(0, 0), Done: time.Unix(0, 0).Add(d)})
		}
		return outs
	}
	got := sliceQuantile([][]outcome{slice(10), slice(30), slice(10)}, 0.5)
	if got < 10 || got > 11 {
		t.Errorf("median over slices %.3f ms, want the fast slices' 10.49", got)
	}
}
