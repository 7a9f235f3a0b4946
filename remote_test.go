package pitex

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pitex/internal/bestfirst"
	"pitex/internal/graph"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
)

// fakeRemote answers RemoteEstimate and RemoteEstimateFrontier from
// in-process shard slices — the transportless reference implementation
// of the distrib client, built from the same BuildShard, Partial(Frontier)
// and Gather primitives the real shard servers and client use.
type fakeRemote struct {
	g      *graph.Graph
	pruned bool
	shards []*rrindex.Index
	users  []int
	theta  int64
	total  int
	drop   map[int]bool
	err    error
	calls  int
	// frontierCalls counts frontier scatters, frontierRows the sibling
	// rows they carried and stoppedRows the shard rows that came back
	// Stopped.
	frontierCalls int
	frontierRows  int
	stoppedRows   int
}

func newFakeRemote(t *testing.T, net *Network, model *TagModel, opts Options, S int) *fakeRemote {
	t.Helper()
	bo, err := IndexBuildOptions(model, opts)
	if err != nil {
		t.Fatalf("IndexBuildOptions: %v", err)
	}
	f := &fakeRemote{
		g:      net.Graph(),
		pruned: opts.Strategy == StrategyIndexPruned,
		total:  net.NumUsers(),
	}
	for s := 0; s < S; s++ {
		idx, users, err := rrindex.BuildShard(net.Graph(), bo, S, s)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", s, err)
		}
		f.shards = append(f.shards, idx)
		f.users = append(f.users, users)
		f.theta += idx.Theta()
	}
	return f
}

func (f *fakeRemote) EstimateRemote(_ context.Context, user int, probe RemoteProbe) (RemoteEstimate, error) {
	f.calls++
	if f.err != nil {
		return RemoteEstimate{}, f.err
	}
	prober, err := probe.Prober(f.g)
	if err != nil {
		return RemoteEstimate{}, err
	}
	var partials []rrindex.Partial
	var missing []int
	for s, idx := range f.shards {
		if f.drop[s] {
			missing = append(missing, s)
			continue
		}
		var p rrindex.Partial
		if f.pruned {
			p = rrindex.NewPrunedEstimator(idx).Partial(s, f.users[s], graph.VertexID(user), prober)
		} else {
			p = rrindex.NewEstimator(idx).Partial(s, f.users[s], graph.VertexID(user), prober)
		}
		partials = append(partials, p)
	}
	if len(missing) == 0 {
		r := rrindex.GatherPartials(partials)
		return RemoteEstimate{
			Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
			RespondingTheta: r.Theta, TotalTheta: r.Theta,
		}, nil
	}
	r := rrindex.GatherPartialsDegraded(partials, f.total)
	return RemoteEstimate{
		Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
		MissingShards: missing, RespondingTheta: r.Theta, TotalTheta: f.theta,
	}, nil
}

// shardPartialer is the scatter side both rrindex families implement.
type shardPartialer interface {
	PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []rrindex.Partial
}

func (f *fakeRemote) EstimateRemoteFrontier(_ context.Context, user int, posteriors [][]float64, stop RemoteStopRule) ([]RemoteEstimate, error) {
	f.frontierCalls++
	f.frontierRows += len(posteriors)
	if f.err != nil {
		return nil, f.err
	}
	rule := sampling.StopRule{Threshold: stop.Threshold, LogInvDelta: stop.LogInvDelta}
	var rows [][]rrindex.Partial
	var missing []int
	for s, idx := range f.shards {
		if f.drop[s] {
			missing = append(missing, s)
			continue
		}
		var est shardPartialer = rrindex.NewEstimator(idx)
		if f.pruned {
			est = rrindex.NewPrunedEstimator(idx)
		}
		rows = append(rows, est.PartialFrontier(s, f.users[s], f.total, graph.VertexID(user), posteriors, rule))
	}
	out := make([]RemoteEstimate, len(posteriors))
	if len(missing) == 0 {
		for i, r := range rrindex.GatherFrontierPartials(rows) {
			out[i] = RemoteEstimate{
				Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
				RespondingTheta: r.Theta, TotalTheta: r.Theta,
			}
		}
	} else {
		for i := range out {
			col := make([]rrindex.Partial, len(rows))
			for j := range rows {
				col[j] = rows[j][i]
			}
			r := rrindex.GatherPartialsDegraded(col, f.total)
			out[i] = RemoteEstimate{
				Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
				MissingShards: missing, RespondingTheta: r.Theta, TotalTheta: f.theta,
			}
		}
	}
	for i := range out {
		for _, set := range rows {
			if set[i].Stopped {
				out[i].EarlyStops++
				f.stoppedRows++
			}
		}
	}
	return out, nil
}

// rowOnlyRemote hides fakeRemote's frontier capability, forcing the
// adapter's one-scatter-per-sibling fallback.
type rowOnlyRemote struct{ f *fakeRemote }

func (r rowOnlyRemote) EstimateRemote(ctx context.Context, user int, probe RemoteProbe) (RemoteEstimate, error) {
	return r.f.EstimateRemote(ctx, user, probe)
}

// countingFrontier wraps an in-process estimator and counts the frontier
// batches the explorer hands it.
type countingFrontier struct {
	bestfirst.Estimator
	calls int
}

func (c *countingFrontier) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	c.calls++
	return c.Estimator.(bestfirst.FrontierEstimator).EstimateFrontier(u, posteriors, stop)
}

func (c *countingFrontier) WorkStats() sampling.WorkStats {
	return c.Estimator.(interface{ WorkStats() sampling.WorkStats }).WorkStats()
}

// stoppingFixture is a network large enough for sequential stopping to
// fire (posting lists well past the minimum scan), with options under
// which every estimation is a frontier batch (CheapBounds).
func stoppingFixture(t *testing.T, s Strategy) (*Network, *TagModel, Options) {
	t.Helper()
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "stoptest", Users: 300, Edges: 2400,
		Topics: 6, Tags: 16, TopicsPerEdge: 2, MaxProb: 0.3, Reciprocity: 0.2,
	}, 5)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	return net, model, Options{
		Strategy: s, Epsilon: 0.5, Delta: 100, MaxK: 3, Seed: 3,
		MaxSamples: 500, MaxIndexSamples: 20000, IndexShards: 3, CheapBounds: true,
	}
}

// TestRemoteEngineFrontierStopping is the frontier-scatter contract on a
// fixture where stops fire: with sequential stopping on at both ends,
// the remote engine answers bit for bit like the in-process S=3 engine,
// issues exactly one remote call per frontier batch (never one per full
// set), and reports the shards' early stops in Explain.
func TestRemoteEngineFrontierStopping(t *testing.T) {
	for _, s := range []Strategy{StrategyIndex, StrategyIndexPruned} {
		net, model, opts := stoppingFixture(t, s)
		local, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		counter := &countingFrontier{Estimator: local.est}
		local.est = counter
		local.explorer = local.newExplorer()
		fake := newFakeRemote(t, net, model, opts, 3)
		remote, err := NewRemoteEngine(net, model, opts, fake)
		if err != nil {
			t.Fatalf("%v: NewRemoteEngine: %v", s, err)
		}
		var fullSets int64
		for u := 0; u < net.NumUsers(); u += 11 {
			batches, calls := counter.calls, fake.frontierCalls
			lres, err := local.QueryTop(u, 3, 2)
			if err != nil {
				t.Fatalf("%v: local QueryTop(%d): %v", s, u, err)
			}
			rres, err := remote.QueryTop(u, 3, 2)
			if err != nil {
				t.Fatalf("%v: remote QueryTop(%d): %v", s, u, err)
			}
			if rres.Influence != lres.Influence || !reflect.DeepEqual(rres.Tags, lres.Tags) ||
				!reflect.DeepEqual(rres.Alternatives, lres.Alternatives) {
				t.Fatalf("%v: user %d: remote (%v, %v, %v) != local (%v, %v, %v)", s, u,
					rres.Tags, rres.Influence, rres.Alternatives, lres.Tags, lres.Influence, lres.Alternatives)
			}
			if rres.Explain.EarlyStops != lres.Explain.EarlyStops {
				t.Fatalf("%v: user %d: remote early stops %d, local %d", s, u,
					rres.Explain.EarlyStops, lres.Explain.EarlyStops)
			}
			if got, want := fake.frontierCalls-calls, counter.calls-batches; got != want {
				t.Fatalf("%v: user %d: %d remote calls for %d frontier batches", s, u, got, want)
			}
			fullSets += rres.FullSetsEstimated
		}
		if fake.calls != 0 {
			t.Fatalf("%v: %d per-row scatters on the frontier path", s, fake.calls)
		}
		if int64(fake.frontierRows) != fullSets || fake.frontierCalls >= fake.frontierRows {
			t.Fatalf("%v: %d frontier calls carried %d rows for %d full sets", s,
				fake.frontierCalls, fake.frontierRows, fullSets)
		}
		if fake.stoppedRows == 0 {
			t.Fatalf("%v: no shard row stopped early; the fixture no longer exercises stopping", s)
		}
		t.Logf("%v: %d frontier calls, %d rows, %d stopped shard rows", s,
			fake.frontierCalls, fake.frontierRows, fake.stoppedRows)
	}
}

// TestRemoteEngineRowFallback: a remote without the frontier capability
// is driven one scatter per sibling and still answers like the in-process
// engine with stopping disabled (the fallback cannot stop early).
func TestRemoteEngineRowFallback(t *testing.T) {
	net, model, opts := stoppingFixture(t, StrategyIndexPruned)
	opts.DisableEarlyStop = true
	local, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	fake := newFakeRemote(t, net, model, opts, 3)
	remote, err := NewRemoteEngine(net, model, opts, rowOnlyRemote{fake})
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	for u := 0; u < net.NumUsers(); u += 37 {
		lres, err := local.Query(u, 2)
		if err != nil {
			t.Fatalf("local Query(%d): %v", u, err)
		}
		rres, err := remote.Query(u, 2)
		if err != nil {
			t.Fatalf("remote Query(%d): %v", u, err)
		}
		if rres.Influence != lres.Influence || !reflect.DeepEqual(rres.Tags, lres.Tags) {
			t.Fatalf("user %d: remote (%v, %v) != local (%v, %v)", u, rres.Tags, rres.Influence, lres.Tags, lres.Influence)
		}
		if int64(fake.calls) < rres.FullSetsEstimated {
			t.Fatalf("user %d: %d row scatters for %d full sets", u, fake.calls, rres.FullSetsEstimated)
		}
		fake.calls = 0
	}
	if fake.frontierCalls != 0 {
		t.Fatalf("%d frontier calls through a row-only remote", fake.frontierCalls)
	}
}

// TestRemoteEngineCloneMatches: a remote engine and its pool clones are
// built by the same explorer constructor, so they explore under the same
// stop rule and answer identically.
func TestRemoteEngineCloneMatches(t *testing.T) {
	net, model, opts := stoppingFixture(t, StrategyIndexPruned)
	fake := newFakeRemote(t, net, model, opts, 3)
	proto, err := NewRemoteEngine(net, model, opts, fake)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	clone := proto.Clone()
	if proto.explorer.StopLogInvDelta != clone.explorer.StopLogInvDelta || proto.explorer.StopLogInvDelta <= 0 {
		t.Fatalf("stop budgets differ or unarmed: proto %v, clone %v",
			proto.explorer.StopLogInvDelta, clone.explorer.StopLogInvDelta)
	}
	for u := 0; u < net.NumUsers(); u += 29 {
		a, err := proto.QueryTop(u, 3, 2)
		if err != nil {
			t.Fatalf("proto QueryTop(%d): %v", u, err)
		}
		b, err := clone.QueryTop(u, 3, 2)
		if err != nil {
			t.Fatalf("clone QueryTop(%d): %v", u, err)
		}
		if a.Influence != b.Influence || !reflect.DeepEqual(a.Alternatives, b.Alternatives) ||
			a.Explain.EarlyStops != b.Explain.EarlyStops {
			t.Fatalf("user %d: proto (%v, %v) != clone (%v, %v)", u, a.Alternatives, a.Influence, b.Alternatives, b.Influence)
		}
	}
}

// TestRemoteEngineMatchesLocal pins the tentpole invariant at the engine
// layer: with every shard responding, a remote engine's answers are
// byte-identical to the in-process sharded engine at the same seeds —
// for both remotable strategies, so both prober wire forms (posterior
// and best-first bound) cross the seam.
func TestRemoteEngineMatchesLocal(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndex, StrategyIndexPruned} {
		opts := testEngineOptions(s)
		opts.IndexShards = 3
		local, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		fake := newFakeRemote(t, net, model, opts, 3)
		remote, err := NewRemoteEngine(net, model, opts, fake)
		if err != nil {
			t.Fatalf("%v: NewRemoteEngine: %v", s, err)
		}
		for u := 0; u < net.NumUsers(); u++ {
			lres, err := local.Query(u, 2)
			if err != nil {
				t.Fatalf("%v: local Query(%d): %v", s, u, err)
			}
			rres, err := remote.Query(u, 2)
			if err != nil {
				t.Fatalf("%v: remote Query(%d): %v", s, u, err)
			}
			if rres.Influence != lres.Influence || !reflect.DeepEqual(rres.Tags, lres.Tags) {
				t.Errorf("%v: user %d: remote (%v, %v) != local (%v, %v)",
					s, u, rres.Tags, rres.Influence, lres.Tags, lres.Influence)
			}
			if rres.Degraded != nil {
				t.Errorf("%v: user %d: healthy query reported degraded %+v", s, u, rres.Degraded)
			}
		}
		if fake.calls == 0 {
			t.Fatalf("%v: no estimation reached the remote", s)
		}
	}
}

func TestRemoteEngineDegraded(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	opts.IndexShards = 3
	fake := newFakeRemote(t, net, model, opts, 3)
	fake.drop = map[int]bool{1: true}
	en, err := NewRemoteEngine(net, model, opts, fake)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	res, err := en.Query(0, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	deg := res.Degraded
	if deg == nil {
		t.Fatal("one-shard-down query reported no degradation")
	}
	if !reflect.DeepEqual(deg.MissingShards, []int{1}) {
		t.Fatalf("MissingShards = %v, want [1]", deg.MissingShards)
	}
	if deg.TargetEpsilon != opts.Epsilon {
		t.Fatalf("TargetEpsilon = %v, want %v", deg.TargetEpsilon, opts.Epsilon)
	}
	if deg.RespondingTheta <= 0 || deg.RespondingTheta >= deg.TotalTheta {
		t.Fatalf("theta accounting: responding %d of total %d", deg.RespondingTheta, deg.TotalTheta)
	}
	want := opts.Epsilon * math.Sqrt(float64(deg.TotalTheta)/float64(deg.RespondingTheta))
	if deg.AchievedEpsilon != want {
		t.Fatalf("AchievedEpsilon = %v, want %v", deg.AchievedEpsilon, want)
	}
	if res.Influence < 1 {
		t.Fatalf("degraded influence %v below clamp", res.Influence)
	}
}

func TestRemoteEngineRemoteError(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndex)
	opts.IndexShards = 2
	fake := newFakeRemote(t, net, model, opts, 2)
	fake.err = errors.New("fleet on fire")
	en, err := NewRemoteEngine(net, model, opts, fake)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	if _, err := en.Query(0, 2); err == nil || !errors.Is(err, fake.err) {
		t.Fatalf("Query error = %v, want the remote failure", err)
	}
}

func TestNewRemoteEngineValidation(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndex)
	fake := newFakeRemote(t, net, model, opts, 1)
	if _, err := NewRemoteEngine(nil, model, opts, fake); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewRemoteEngine(net, model, opts, nil); err == nil {
		t.Error("nil remote accepted")
	}
	if _, err := NewRemoteEngine(net, model, Options{Epsilon: 2}, fake); err == nil {
		t.Error("invalid options accepted")
	}
	for _, s := range []Strategy{StrategyLazy, StrategyMC, StrategyRR, StrategyTIM, StrategyDelay} {
		if _, err := NewRemoteEngine(net, model, testEngineOptions(s), fake); err == nil {
			t.Errorf("%v accepted for remote serving", s)
		}
	}
	other, err := NewTagModel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRemoteEngine(net, other, opts, fake); err == nil {
		t.Error("topic-count mismatch accepted")
	}
}

func TestRemoteProbeValidateAndProber(t *testing.T) {
	net, _ := fig2Network(t)
	g := net.Graph()
	cases := []struct {
		name  string
		probe RemoteProbe
		ok    bool
	}{
		{"posterior", RemoteProbe{Posterior: []float64{0.2, 0.3, 0.5}}, true},
		{"bound", RemoteProbe{BoundSupported: []bool{true, false}, BoundWeights: []float64{0.5, 0}}, true},
		{"neither", RemoteProbe{}, false},
		{"both", RemoteProbe{Posterior: []float64{1}, BoundSupported: []bool{true}, BoundWeights: []float64{1}}, false},
		{"length mismatch", RemoteProbe{BoundSupported: []bool{true}, BoundWeights: []float64{0.5, 0.5}}, false},
	}
	for _, c := range cases {
		err := c.probe.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		prober, err := c.probe.Prober(g)
		if (err == nil) != c.ok {
			t.Errorf("%s: Prober err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && prober == nil {
			t.Errorf("%s: nil prober", c.name)
		}
	}
}

func TestIndexBuildOptions(t *testing.T) {
	_, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	opts.TrackUpdates = true
	bo, err := IndexBuildOptions(model, opts)
	if err != nil {
		t.Fatalf("IndexBuildOptions: %v", err)
	}
	if bo.Seed != opts.Seed || bo.MaxIndexSamples != opts.MaxIndexSamples || !bo.TrackMembers {
		t.Fatalf("derived build options: %+v", bo)
	}
	if bo.Accuracy.Epsilon != opts.Epsilon || bo.Accuracy.Delta != opts.Delta {
		t.Fatalf("derived accuracy: %+v", bo.Accuracy)
	}
	if bo.Accuracy.LogSearchSpace <= 0 {
		t.Fatalf("LogSearchSpace = %v, want > 0", bo.Accuracy.LogSearchSpace)
	}
	if _, err := IndexBuildOptions(nil, opts); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := IndexBuildOptions(model, Options{Epsilon: -1}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestRepairSeed(t *testing.T) {
	if got := RepairSeed(11, 0); got != 11 {
		t.Fatalf("generation 0 seed = %d, want the base seed", got)
	}
	seen := map[uint64]bool{}
	for gen := uint64(0); gen < 8; gen++ {
		s := RepairSeed(11, gen)
		if seen[s] {
			t.Fatalf("seed collision at generation %d", gen)
		}
		seen[s] = true
	}
}
