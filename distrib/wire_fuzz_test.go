package distrib

import (
	"encoding/json"
	"reflect"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/rrindex"
)

// FuzzWireDecode exercises the shard-protocol wire decoding the servers
// and the client perform on bytes from the network: JSON into the wire
// structs, probe validation and materialization, frontier request
// validation and frontier reply row-shape checking, and update
// re-staging. None of it may panic on arbitrary input; a validated
// frontier request has only model-shaped rows, rows that pass checkRows
// must gather to one result per sibling, and the canonical form of an
// accepted update must be a fixed point of the re-staging round trip
// (RequestToBatch then BatchToRequest), since that is exactly the path a
// coordinator-staged batch takes through every shard server.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"user":3,"generation":1,"probe":{"posterior":[0.5,0.5]}}`))
	f.Add([]byte(`{"user":0,"probe":{"bound_supported":[true,false],"bound_weights":[1,0.25]}}`))
	f.Add([]byte(`{"probe":{"posterior":[1],"bound_weights":[1]}}`))
	f.Add([]byte(`{"generation":2,"add_users":1,"insert_edges":[{"from":9,"to":0,"probs":[{"topic":0,"prob":0.5}]}]}`))
	f.Add([]byte(`{"generation":2,"delete_edges":[{"from":0,"to":1}],"set_edges":[{"from":1,"to":2,"probs":[]}]}`))
	f.Add([]byte(`{"generation":1,"add_users":-4}`))
	f.Add([]byte(`{"generation":3,"total_shards":2,"strategy":"INDEXEST","network":"bm90IGEgZ3JhcGg=","shards":[{"shard":0,"users":1,"index":"AAAA"}]}`))
	f.Add([]byte(`{"user":2,"generation":1,"posteriors":[[0.5,0.5],[1,0]],"stop":{"threshold":3.5,"log_inv_delta":7}}`))
	f.Add([]byte(`{"user":2,"posteriors":[]}`))
	f.Add([]byte(`{"user":2,"posteriors":[[0.5,0.5],[1]]}`))
	f.Add([]byte(`{"generation":4,"rows":[[{"shard":0,"hits":3,"samples":4,"contained":5,"theta":100,"users":10},{"shard":0,"hits":1,"samples":8,"contained":5,"theta":100,"users":10,"est_hits":2.5,"stopped":true}],[{"shard":1,"hits":0,"theta":50,"users":5},{"shard":1,"theta":50,"users":5}]]}`))
	f.Add([]byte(`{"rows":[[{"shard":0}],[{"shard":0},{"shard":1}]]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		var er EstimateRequest
		if err := json.Unmarshal(data, &er); err == nil {
			if err := er.Probe.Validate(); err == nil {
				if p, err := er.Probe.Prober(g); err != nil || p == nil {
					t.Fatalf("validated probe failed to materialize: %v", err)
				}
			}
		}

		var ur UpdateRequest
		if err := json.Unmarshal(data, &ur); err == nil {
			b, err := RequestToBatch(ur)
			if err == nil {
				canonical := BatchToRequest(b, ur.Generation)
				b2, err := RequestToBatch(canonical)
				if err != nil {
					t.Fatalf("canonical update rejected on re-staging: %v", err)
				}
				if again := BatchToRequest(b2, ur.Generation); !reflect.DeepEqual(canonical, again) {
					t.Fatalf("re-staging is not a fixed point:\n%+v\n%+v", canonical, again)
				}
			}
		}

		var fr FrontierRequest
		if err := json.Unmarshal(data, &fr); err == nil {
			if err := fr.Validate(g.NumTopics()); err == nil {
				for i, p := range fr.Posteriors {
					if len(p) != g.NumTopics() {
						t.Fatalf("validated frontier row %d has %d entries for %d topics", i, len(p), g.NumTopics())
					}
				}
			}
		}

		var resp FrontierResponse
		if err := json.Unmarshal(data, &resp); err == nil && len(resp.Rows) > 0 {
			// Check the rows against the layout they claim (each set's
			// first shard id) and against a fixed two-shard layout; either
			// way, accepted rows must gather one result per sibling.
			width := len(resp.Rows[0])
			claimed := make([]int, len(resp.Rows))
			for j, set := range resp.Rows {
				if len(set) > 0 {
					claimed[j] = set[0].Shard
				}
			}
			for _, shards := range [][]int{claimed, {0, 1}} {
				if checkRows(resp.Rows, shards, width) != nil {
					continue
				}
				if got := rrindex.GatherFrontierPartials(resp.Rows); len(got) != width {
					t.Fatalf("checked rows gathered %d results for %d siblings", len(got), width)
				}
				for i := 0; i < width; i++ {
					col := make([]rrindex.Partial, len(resp.Rows))
					for j, set := range resp.Rows {
						col[j] = set[i]
					}
					_ = rrindex.GatherPartialsDegraded(col, 100)
				}
			}
		}

		// The remaining wire shapes have no semantics beyond JSON, but the
		// client decodes them from untrusted responses — they must decode
		// or error, never panic.
		var ir InfoResponse
		_ = json.Unmarshal(data, &ir)
		var rs ResyncState
		_ = json.Unmarshal(data, &rs)
	})
}
