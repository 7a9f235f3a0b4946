package distrib

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pitex"
	"pitex/internal/rrindex"
)

// frontierShard serves /shard/info for one shard and answers
// /shard/estimate-frontier with rows(req).
func frontierShard(t *testing.T, info ShardInfo, totalShards, totalUsers int,
	rows func(FrontierRequest) [][]rrindex.Partial) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(InfoResponse{
			TotalShards: totalShards, TotalUsers: totalUsers,
			Strategy: "INDEXEST+", Ready: true, Shards: []ShardInfo{info},
		})
	})
	mux.HandleFunc("/shard/estimate-frontier", func(w http.ResponseWriter, r *http.Request) {
		var req FrontierRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(FrontierResponse{Rows: rows(req)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// siblingRows builds one shard's canned row set: sibling i has 10+i hits,
// and sibling stopAt (if in range) comes back early-stopped.
func siblingRows(info ShardInfo, width, stopAt int) []rrindex.Partial {
	set := make([]rrindex.Partial, width)
	for i := range set {
		set[i] = rrindex.Partial{
			Shard: info.Shard, Hits: int64(10 + i), Samples: 20, Contained: 25,
			Theta: info.Theta, Users: info.Users,
		}
		if i == stopAt {
			set[i].Stopped, set[i].EstHits = true, 31.5
		}
	}
	return set
}

// TestEstimateRemoteFrontier drives the client's frontier scatter: a
// healthy gather equal to rrindex.GatherFrontierPartials with per-row
// early-stop counts, a malformed reply and a dead group both degrading
// to the per-column GatherPartialsDegraded fold, and total silence
// failing outright.
func TestEstimateRemoteFrontier(t *testing.T) {
	i0 := ShardInfo{Shard: 0, Users: 100, Theta: 1000}
	i1 := ShardInfo{Shard: 1, Users: 50, Theta: 500}
	var sawStop pitex.RemoteStopRule
	s0 := frontierShard(t, i0, 2, 150, func(req FrontierRequest) [][]rrindex.Partial {
		sawStop = req.Stop
		return [][]rrindex.Partial{siblingRows(i0, len(req.Posteriors), 1)}
	})
	malformed := false
	s1 := frontierShard(t, i1, 2, 150, func(req FrontierRequest) [][]rrindex.Partial {
		width := len(req.Posteriors)
		if malformed {
			width-- // one row short: checkRows must reject the reply
		}
		return [][]rrindex.Partial{siblingRows(i1, width, 2)}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{s0.URL}, {s1.URL}}, Options{ShardDeadline: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)

	if got, err := c.EstimateRemoteFrontier(ctx, 3, nil, pitex.RemoteStopRule{}); got != nil || err != nil {
		t.Fatalf("empty frontier = %v, %v; want nothing", got, err)
	}
	posteriors := [][]float64{{0.5, 0.5}, {0.2, 0.8}, {1, 0}}
	stop := pitex.RemoteStopRule{Threshold: 4.5, LogInvDelta: 7}
	healthy, err := c.EstimateRemoteFrontier(ctx, 3, posteriors, stop)
	if err != nil {
		t.Fatalf("EstimateRemoteFrontier: %v", err)
	}
	if sawStop != stop {
		t.Fatalf("shard saw stop rule %+v, sent %+v", sawStop, stop)
	}
	want := rrindex.GatherFrontierPartials([][]rrindex.Partial{siblingRows(i0, 3, 1), siblingRows(i1, 3, 2)})
	for i, r := range healthy {
		if r.Influence != want[i].Influence || r.Samples != want[i].Samples || r.Theta != want[i].Theta ||
			len(r.MissingShards) != 0 || r.RespondingTheta != r.TotalTheta {
			t.Fatalf("sibling %d: healthy %+v, want gather %+v", i, r, want[i])
		}
		if wantStops := map[int]int{0: 0, 1: 1, 2: 1}[i]; r.EarlyStops != wantStops {
			t.Fatalf("sibling %d: %d early stops, want %d", i, r.EarlyStops, wantStops)
		}
	}

	// A reply failing the row-shape check counts its shard missing.
	malformed = true
	bad, err := c.EstimateRemoteFrontier(ctx, 3, posteriors, stop)
	if err != nil {
		t.Fatalf("malformed-reply estimate: %v", err)
	}
	for i, r := range bad {
		wantDeg := rrindex.GatherPartialsDegraded([]rrindex.Partial{siblingRows(i0, 3, 1)[i]}, 150)
		if r.Influence != wantDeg.Influence || !reflect.DeepEqual(r.MissingShards, []int{1}) ||
			r.RespondingTheta != 1000 || r.TotalTheta != 1500 {
			t.Fatalf("sibling %d: degraded %+v, want influence %v missing [1]", i, r, wantDeg.Influence)
		}
	}

	// A dead group degrades the same way; a dead fleet fails.
	s1.Close()
	if deg, err := c.EstimateRemoteFrontier(ctx, 3, posteriors, stop); err != nil || !reflect.DeepEqual(deg[0].MissingShards, []int{1}) {
		t.Fatalf("dead-group estimate = %+v, %v", deg, err)
	}
	s0.Close()
	if _, err := c.EstimateRemoteFrontier(ctx, 3, posteriors, stop); err == nil {
		t.Fatal("estimate with no shard responding succeeded")
	}
}

func TestCheckRows(t *testing.T) {
	row := func(s int) rrindex.Partial { return rrindex.Partial{Shard: s} }
	cases := []struct {
		name   string
		rows   [][]rrindex.Partial
		shards []int
		width  int
		ok     bool
	}{
		{"ok", [][]rrindex.Partial{{row(1), row(1)}, {row(4), row(4)}}, []int{1, 4}, 2, true},
		{"missing set", [][]rrindex.Partial{{row(1), row(1)}}, []int{1, 4}, 2, false},
		{"extra set", [][]rrindex.Partial{{row(1)}, {row(4)}}, []int{1}, 1, false},
		{"short set", [][]rrindex.Partial{{row(1), row(1)}, {row(4)}}, []int{1, 4}, 2, false},
		{"wrong shard", [][]rrindex.Partial{{row(1), row(1)}, {row(4), row(1)}}, []int{1, 4}, 2, false},
		{"swapped sets", [][]rrindex.Partial{{row(4)}, {row(1)}}, []int{1, 4}, 1, false},
	}
	for _, c := range cases {
		if err := checkRows(c.rows, c.shards, c.width); (err == nil) != c.ok {
			t.Errorf("%s: checkRows = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestFrontierRequestValidate(t *testing.T) {
	if err := (FrontierRequest{}).Validate(3); err == nil {
		t.Error("empty frontier accepted")
	}
	if err := (FrontierRequest{Posteriors: [][]float64{{1, 0, 0}, {1, 0}}}).Validate(3); err == nil {
		t.Error("short posterior accepted")
	}
	if err := (FrontierRequest{Posteriors: [][]float64{{1, 0, 0}, {0, 0.5, 0.5}}}).Validate(3); err != nil {
		t.Errorf("valid frontier rejected: %v", err)
	}
}
