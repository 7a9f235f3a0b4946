package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/faultinject"
)

// postFrontier POSTs a frontier request (raw JSON when body is a string)
// and returns the status and, on 200, the decoded response.
func postFrontier(t *testing.T, ts *httptest.Server, body any, header map[string]string) (int, distrib.FrontierResponse) {
	t.Helper()
	var data []byte
	if s, ok := body.(string); ok {
		data = []byte(s)
	} else {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/shard/estimate-frontier", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST estimate-frontier: %v", err)
	}
	defer resp.Body.Close()
	var out distrib.FrontierResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode frontier response: %v", err)
		}
	}
	return resp.StatusCode, out
}

// fig2Frontier is a valid three-sibling frontier over the Fig. 2 model's
// three topics.
func fig2Frontier() [][]float64 {
	return [][]float64{{0.6, 0.4, 0}, {0, 0.4, 0.6}, {0.3, 0.4, 0.3}}
}

// TestShardFrontierMatchesPerProbe: with stopping off, each row of a
// frontier reply equals the /shard/estimate partial for that sibling —
// and a repeated request, served by a pooled estimator set, answers the
// same.
func TestShardFrontierMatchesPerProbe(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	frontier := fig2Frontier()
	for user := 0; user < 7; user++ {
		req := distrib.FrontierRequest{User: user, Posteriors: frontier}
		status, first := postFrontier(t, ts, req, nil)
		if status != http.StatusOK {
			t.Fatalf("user %d: frontier = %d", user, status)
		}
		if len(first.Rows) != 2 {
			t.Fatalf("user %d: %d row sets for 2 owned shards", user, len(first.Rows))
		}
		for i, post := range frontier {
			body, _ := json.Marshal(distrib.EstimateRequest{User: user, Probe: pitex.RemoteProbe{Posterior: post}})
			resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST estimate: %v", err)
			}
			var single distrib.EstimateResponse
			err = json.NewDecoder(resp.Body).Decode(&single)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode estimate: %v", err)
			}
			for j := range first.Rows {
				if first.Rows[j][i] != single.Partials[j] {
					t.Fatalf("user %d sibling %d shard set %d: frontier row %+v != single %+v",
						user, i, j, first.Rows[j][i], single.Partials[j])
				}
			}
		}
		if _, again := postFrontier(t, ts, req, nil); !equalRows(again.Rows, first.Rows) {
			t.Fatalf("user %d: pooled rerun %+v != first %+v", user, again.Rows, first.Rows)
		}
	}
}

func equalRows(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// TestShardFrontierRejects covers the endpoint's refusal paths.
func TestShardFrontierRejects(t *testing.T) {
	ss, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed", "{nope", http.StatusBadRequest},
		{"empty frontier", distrib.FrontierRequest{User: 1}, http.StatusBadRequest},
		{"wrong posterior length", distrib.FrontierRequest{User: 1, Posteriors: [][]float64{{1, 0, 0}, {1, 0}}}, http.StatusBadRequest},
		{"user out of range", distrib.FrontierRequest{User: 99, Posteriors: fig2Frontier()}, http.StatusBadRequest},
		{"stale generation", distrib.FrontierRequest{User: 1, Generation: 5, Posteriors: fig2Frontier()}, http.StatusConflict},
	}
	for _, c := range cases {
		if got, _ := postFrontier(t, ts, c.body, nil); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}

	// Deadline-budget shedding: once the endpoint's observed p50 exceeds
	// the forwarded budget, the request is shed before taking a worker.
	for i := 0; i < p50MinSamples; i++ {
		ss.metrics.Observe("shard-estimate-frontier/"+ss.strategy.String(), 500*time.Millisecond)
	}
	req := distrib.FrontierRequest{User: 1, Posteriors: fig2Frontier()}
	if got, _ := postFrontier(t, ts, req, map[string]string{distrib.DeadlineHeader: "1"}); got != http.StatusServiceUnavailable {
		t.Errorf("under-budget frontier = %d, want 503", got)
	}
	if got, _ := postFrontier(t, ts, req, map[string]string{distrib.DeadlineHeader: "60000"}); got != http.StatusOK {
		t.Errorf("well-budgeted frontier = %d, want 200", got)
	}
}

// TestShardFrontierDelayStrategy: DELAYEST fleets refuse frontier
// scatters exactly as they refuse single-probe ones.
func TestShardFrontierDelayStrategy(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyDelay, false)
	req := distrib.FrontierRequest{User: 1, Posteriors: fig2Frontier()}
	if got, _ := postFrontier(t, ts, req, nil); got != http.StatusNotImplemented {
		t.Fatalf("DELAYEST frontier = %d, want 501", got)
	}
}

// TestShardFrontierFaultInjection: the estimate failpoint guards the
// frontier endpoint too.
func TestShardFrontierFaultInjection(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	if err := faultinject.Enable(1, []faultinject.Rule{
		{Point: faultinject.PointShardEstimate, Mode: faultinject.ModeError, Count: 1},
	}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	t.Cleanup(faultinject.Disable)
	req := distrib.FrontierRequest{User: 1, Posteriors: fig2Frontier()}
	if got, _ := postFrontier(t, ts, req, nil); got != http.StatusInternalServerError {
		t.Fatalf("faulted frontier = %d, want 500", got)
	}
	if got, _ := postFrontier(t, ts, req, nil); got != http.StatusOK {
		t.Fatalf("post-schedule frontier = %d, want 200", got)
	}
}

// TestNewCoordinatorRejectsStrategyMismatch: a coordinator whose engine
// strategy differs from the fleet's — a DELAYEST fleet in particular —
// fails at construction rather than on every query.
func TestNewCoordinatorRejectsStrategyMismatch(t *testing.T) {
	net, model := fig2NetModel(t)
	for _, fleet := range []pitex.Strategy{pitex.StrategyDelay, pitex.StrategyIndex} {
		_, ts := startFig2Shards(t, fleet, false)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		client, err := distrib.Dial(ctx, [][]string{{ts.URL}}, distrib.Options{ReconcileInterval: -1})
		cancel()
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(client.Close)
		en, err := pitex.NewRemoteEngine(net, model, fig2Options(pitex.StrategyIndexPruned, 2), client)
		if err != nil {
			t.Fatalf("NewRemoteEngine: %v", err)
		}
		if srv, err := NewCoordinator(en, client, pitex.ServeOptions{PoolSize: 1}); err == nil {
			srv.Close()
			t.Fatalf("coordinator over a %v fleet accepted for an INDEXEST+ engine", fleet)
		}
	}
}

// TestFleetFrontierStoppingMatchesInProcess runs the whole frontier path
// — remote engine, distrib client, three shard servers over HTTP — on a
// fixture large enough for sequential stopping to fire, and checks the
// answers and early-stop counts bit for bit against the in-process
// IndexShards=3 engine.
func TestFleetFrontierStoppingMatchesInProcess(t *testing.T) {
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "stoptest", Users: 300, Edges: 2400,
		Topics: 6, Tags: 16, TopicsPerEdge: 2, MaxProb: 0.3, Reciprocity: 0.2,
	}, 5)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	const S = 3
	opts := pitex.Options{
		Strategy: pitex.StrategyIndexPruned, Epsilon: 0.5, Delta: 100, MaxK: 3, Seed: 3,
		MaxSamples: 500, MaxIndexSamples: 20000, IndexShards: S, CheapBounds: true,
	}
	groups := make([][]string, S)
	for s := 0; s < S; s++ {
		ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: S, Owned: []int{s}})
		if err != nil {
			t.Fatalf("NewShardServer(%d): %v", s, err)
		}
		ts := httptest.NewServer(ss.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(ss.Close)
		groups[s] = []string{ts.URL}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client, err := distrib.Dial(ctx, groups, distrib.Options{ReconcileInterval: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(client.Close)
	remote, err := pitex.NewRemoteEngine(net, model, opts, client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	local, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var stops int64
	for u := 0; u < net.NumUsers(); u += 23 {
		lres, err := local.QueryTop(u, 3, 2)
		if err != nil {
			t.Fatalf("local QueryTop(%d): %v", u, err)
		}
		rres, err := remote.QueryTopCtx(ctx, u, 3, 2)
		if err != nil {
			t.Fatalf("remote QueryTop(%d): %v", u, err)
		}
		if rres.Influence != lres.Influence || !equalRows(rres.Alternatives, lres.Alternatives) || rres.Degraded != nil {
			t.Fatalf("user %d: fleet %v (%v, degraded %v) != in-process %v (%v)", u,
				rres.Alternatives, rres.Influence, rres.Degraded, lres.Alternatives, lres.Influence)
		}
		if rres.Explain.EarlyStops != lres.Explain.EarlyStops {
			t.Fatalf("user %d: fleet early stops %d, in-process %d", u, rres.Explain.EarlyStops, lres.Explain.EarlyStops)
		}
		stops += rres.Explain.EarlyStops
	}
	if stops == 0 {
		t.Fatal("no early stop reached the coordinator's Explain")
	}
}
