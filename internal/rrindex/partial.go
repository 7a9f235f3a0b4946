package rrindex

import (
	"fmt"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file is the distributed face of the sharded index: everything a
// shard server and a scatter-gather coordinator need to split one
// ShardedIndex estimation across processes while keeping the math
// byte-identical to the in-process path.
//
// The contract mirrors BuildSharded/ShardedEstimator exactly:
//
//   - BuildShard(g, opts, S, s) constructs the same *Index that
//     BuildSharded(g, opts, S) would hold at shards[s] — same hash
//     partition, same apportioned θ_s, same derived seed, same per-shard
//     worker split — so a fleet of shard servers, each building its own
//     slice, reproduces the monolithic deployment's index bit for bit.
//   - Estimator.Partial / PrunedEstimator.Partial expose the raw
//     per-shard scatter counts (hits, samples, postings size) together
//     with the θ_s/|V_s| normalization metadata, in a wire-friendly shape.
//   - GatherPartials folds a complete set of partials with the identical
//     float operations, in the identical shard order, as
//     ShardedIndex.gather — the all-shards-healthy byte-identity
//     guarantee rests on this function being the single home of the
//     gather arithmetic.
//   - GatherPartialsDegraded is the missing-shard fallback: the unbiased
//     sum over responding shards, extrapolated to the full population by
//     |V| / |V_responding|. The extrapolation multiply runs only on this
//     path, so a healthy gather never picks up a stray rounding step.

// Partial is one shard's contribution to a scatter-gather estimation:
// the raw coverage counts plus the normalization metadata (θ_s, |V_s|)
// the gather needs. The JSON tags make it the wire row shard servers
// return verbatim.
type Partial struct {
	Shard int `json:"shard"`
	// Hits is the number of this shard's RR-Graphs containing the query
	// user that the user actually reaches under the probed edge
	// probabilities.
	Hits int64 `json:"hits"`
	// Samples counts the RR-Graphs whose reachability was verified
	// (after cut pruning for IndexEst+), mirroring Result.Samples.
	Samples int64 `json:"samples"`
	// Contained is θ_s(u), the shard's postings-list length for the user.
	Contained int `json:"contained"`
	// Theta is the shard's offline sample count θ_s.
	Theta int64 `json:"theta"`
	// Users is |V_s|, the shard's target-pool size.
	Users int `json:"users"`
	// EstHits and Stopped carry the sequential-stopping outcome of a
	// frontier-batched scatter (PartialFrontier): when Stopped is true
	// the shard terminated the scan early and EstHits holds the unbiased
	// (h/n)·N extrapolation the gather should use instead of Hits. Both
	// are zero-valued on the classic per-candidate path, keeping the v1
	// wire rows byte-identical.
	EstHits float64 `json:"est_hits,omitempty"`
	Stopped bool    `json:"stopped,omitempty"`
}

// effectiveHits returns the hit count a gather should normalize: the
// exact count, or the extrapolation recorded by an early-stopped scan.
func (p Partial) effectiveHits() float64 {
	if p.Stopped {
		return p.EstHits
	}
	return float64(p.Hits)
}

// shardLayout recomputes the deterministic (pools, θ apportionment) of a
// BuildSharded call and validates the shard id.
func shardLayout(numVertices int, opts BuildOptions, numShards, shard int) (pools [][]graph.VertexID, thetas []int64, err error) {
	S := numShards
	if S < 1 {
		S = 1
	}
	if shard < 0 || shard >= S {
		return nil, nil, fmt.Errorf("rrindex: shard %d outside [0,%d)", shard, S)
	}
	pools = shardPools(numVertices, S)
	sizes := make([]int, S)
	for s := range pools {
		sizes[s] = poolSizeOf(pools[s], numVertices)
	}
	return pools, shardThetas(opts.Theta(numVertices), sizes), nil
}

// BuildShard constructs shard `shard` of an S-way sharded index, exactly
// as BuildSharded(g, opts, numShards) builds its shards[shard]: the same
// hash partition, apportioned θ, derived RNG stream and per-shard worker
// count. The second return is |V_s|. A shard-server fleet built this way
// is byte-identical, shard for shard, to the in-process ShardedIndex.
func BuildShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*Index, int, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rrindex: %w", err)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools, thetas, err := shardLayout(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, 0, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	o.Workers = (workers + S - 1) / S
	idx, err := buildWithPool(g, o, pools[shard], thetas[shard])
	return idx, poolSizeOf(pools[shard], g.NumVertices()), err
}

// BuildDelayMatShard is BuildShard for the DelayMat counter structure.
func BuildDelayMatShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*DelayMat, int, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rrindex: %w", err)
	}
	pools, thetas, err := shardLayout(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, 0, err
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	dm, err := buildDelayMatPool(g, o, pools[shard], thetas[shard])
	return dm, poolSizeOf(pools[shard], g.NumVertices()), err
}

// shardRepairPlan is the single-shard replica of routeRepair's per-shard
// decision: whether shard `shard` needs re-sampling under this batch, and
// the repairSpec to run if so. oldTheta is the shard's current θ_s and
// ownsTouched whether its postings/counters contain a touched head.
func shardRepairPlan(newVertices, oldVertices, addedVertices int, opts BuildOptions, numShards, shard int,
	oldTheta int64, ownsTouched bool) (needs bool, spec repairSpec, users int, err error) {
	if newVertices != oldVertices+addedVertices {
		return false, spec, 0, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newVertices, oldVertices, addedVertices)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools, thetas, err := shardLayout(newVertices, opts, numShards, shard)
	if err != nil {
		return false, spec, 0, err
	}
	pool := pools[shard]
	users = poolSizeOf(pool, newVertices)
	var addedPool []graph.VertexID
	if S > 1 {
		i := sort.Search(len(pool), func(i int) bool { return pool[i] >= graph.VertexID(oldVertices) })
		addedPool = pool[i:]
	}
	thetaNew := thetas[shard]
	if thetaNew < oldTheta {
		thetaNew = oldTheta // θ never shrinks
	}
	needs = thetaNew > oldTheta ||
		(S > 1 && len(addedPool) > 0) ||
		(S == 1 && addedVertices > 0) ||
		ownsTouched
	spec = repairSpec{addedVertices: addedVertices, thetaNew: thetaNew}
	if S > 1 {
		spec.pool = pool
		spec.addedPool = addedPool
	}
	return needs, spec, users, nil
}

// RepairShard repairs this index as shard `shard` of an S-way layout,
// applying exactly the routing decision ShardedIndex.Repair would for
// that shard: re-sample only when its postings contain a touched head,
// its partition gained users, or its apportioned θ grew — otherwise the
// receiver's arenas are shared via a zero-copy graph re-bind. opts.Seed
// must be the cluster's base repair seed for the new generation; the
// per-shard derivation happens here. Returns the new shard, its repair
// stats and the new |V_s|.
func (idx *Index) RepairShard(g *graph.Graph, opts BuildOptions, numShards, shard int,
	touched []graph.VertexID, addedVertices int) (*Index, RepairStats, int, error) {
	var stats RepairStats
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, stats, 0, fmt.Errorf("rrindex: %w", err)
	}
	owns := false
	for _, h := range touched {
		if int(h) < len(idx.containing) && len(idx.containing[h]) > 0 {
			owns = true
			break
		}
	}
	needs, spec, users, err := shardRepairPlan(g.NumVertices(), idx.g.NumVertices(), addedVertices,
		opts, numShards, shard, idx.theta, owns)
	if err != nil {
		return nil, stats, 0, err
	}
	if !needs {
		stats.Total = len(idx.graphs)
		return idx.withGraph(g), stats, users, nil
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	next, stats, err := idx.repair(g, o, touched, spec)
	return next, stats, users, err
}

// RepairShard is the DelayMat analog of Index.RepairShard; it requires
// TrackMembers bookkeeping (ErrNotRepairable otherwise).
func (dm *DelayMat) RepairShard(g *graph.Graph, opts BuildOptions, numShards, shard int,
	touched []graph.VertexID, addedVertices int) (*DelayMat, RepairStats, int, error) {
	var stats RepairStats
	if !dm.CanRepair() {
		return nil, stats, 0, ErrNotRepairable
	}
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, stats, 0, fmt.Errorf("rrindex: %w", err)
	}
	owns := false
	for _, h := range touched {
		if int(h) < len(dm.counts) && dm.counts[h] > 0 {
			owns = true
			break
		}
	}
	needs, spec, users, err := shardRepairPlan(g.NumVertices(), dm.g.NumVertices(), addedVertices,
		opts, numShards, shard, dm.theta, owns)
	if err != nil {
		return nil, stats, 0, err
	}
	if !needs {
		stats.Total = len(dm.members)
		return dm.withGraph(g), stats, users, nil
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	next, stats, err := dm.repair(g, o, touched, spec)
	return next, stats, users, err
}

// NumGraphs returns the number of materialized RR-Graphs.
func (idx *Index) NumGraphs() int { return len(idx.graphs) }

// Partial runs the scatter side of one estimation against this shard's
// index and packages the counts with the gather metadata. shard and users
// identify the shard's slot and |V_s| in the cluster layout.
func (est *Estimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	hits, contained := est.hitsProber(u, prober)
	return Partial{
		Shard: shard, Hits: hits,
		Samples: int64(contained), Contained: contained,
		Theta: est.idx.theta, Users: users,
	}
}

// Partial is Estimator.Partial with the cut-pruning layer: Samples counts
// only the graphs that survived the filter and were verified.
func (pe *PrunedEstimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	hits, samples, contained := pe.hitsProber(u, prober)
	return Partial{
		Shard: shard, Hits: hits,
		Samples: samples, Contained: contained,
		Theta: pe.idx.theta, Users: users,
	}
}

// packPartialFrontier converts one chunk's frontierHits into wire rows.
func packPartialFrontier(fhs []frontierHits, shard, users int, theta int64, out []Partial) {
	for i, fh := range fhs {
		out[i] = Partial{
			Shard: shard, Hits: fh.Hits,
			Samples: fh.Samples, Contained: fh.Contained,
			Theta: theta, Users: users,
		}
		if fh.Stopped {
			out[i].EstHits = fh.Est
			out[i].Stopped = true
		}
	}
}

// PartialFrontier is the frontier-batched scatter side: one wire row per
// sibling posterior, decided in a single masked pass over this shard's
// postings. totalUsers is the cluster's full |V| (the stopping threshold
// is apportioned by θ_s/|V|); stop follows the StopRule contract. With
// stopping disabled each row is byte-identical to a Partial call for
// that sibling.
func (est *Estimator) PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []Partial {
	hitsThr, shl := stopParams(stop, est.idx.theta, totalUsers)
	out := make([]Partial, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		fhs := est.hitsFrontier(u, chunk, hitsThr, shl)
		packPartialFrontier(fhs, shard, users, est.idx.theta, out[off:])
	}
	return out
}

// PartialFrontier is Estimator.PartialFrontier with the cut-pruning
// layer in front of verification.
func (pe *PrunedEstimator) PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []Partial {
	hitsThr, shl := stopParams(stop, pe.idx.theta, totalUsers)
	out := make([]Partial, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		fhs := pe.hitsFrontier(u, chunk, hitsThr, shl)
		packPartialFrontier(fhs, shard, users, pe.idx.theta, out[off:])
	}
	return out
}

// sortPartials orders parts ascending by shard id — the gather iteration
// order the in-process ShardedIndex.gather uses, which fixes the float
// summation order.
func sortPartials(parts []Partial) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Shard < parts[j].Shard })
}

// GatherPartials folds a COMPLETE set of per-shard partials (one per
// shard of the layout, any order) into the unbiased spread estimate
// Σ_s (hits_s/θ_s)·|V_s|, clamped at 1. The summation order and float
// operations replicate ShardedIndex.gather exactly, so a scatter-gather
// over remote shards is byte-identical to the in-process estimate.
func GatherPartials(parts []Partial) sampling.Result {
	sortPartials(parts)
	var inf float64
	var totSamples, totTheta int64
	contained := 0
	for _, p := range parts {
		totSamples += p.Samples
		totTheta += p.Theta
		contained += p.Contained
		if p.Theta > 0 {
			inf += float64(p.Hits) / float64(p.Theta) * float64(p.Users)
		}
	}
	if inf < 1 {
		inf = 1
	}
	return sampling.Result{
		Influence: inf,
		Samples:   totSamples,
		Theta:     totTheta,
		Reachable: contained,
	}
}

// GatherFrontierPartials folds per-shard PartialFrontier row sets —
// parts[s][i] is shard s's row for sibling i, every shard covering the
// same sibling list — into one Result per sibling, with the identical
// float operations and shard order as GatherPartials. Early-stopped rows
// contribute their extrapolated hit counts.
func GatherFrontierPartials(parts [][]Partial) []sampling.Result {
	if len(parts) == 0 {
		return nil
	}
	width := len(parts[0])
	out := make([]sampling.Result, width)
	for i := 0; i < width; i++ {
		var inf float64
		var totSamples, totTheta int64
		contained := 0
		for s := range parts {
			p := parts[s][i]
			totSamples += p.Samples
			totTheta += p.Theta
			contained += p.Contained
			if p.Theta > 0 {
				inf += p.effectiveHits() / float64(p.Theta) * float64(p.Users)
			}
		}
		if inf < 1 {
			inf = 1
		}
		out[i] = sampling.Result{
			Influence: inf,
			Samples:   totSamples,
			Theta:     totTheta,
			Reachable: contained,
		}
	}
	return out
}

// GatherPartialsDegraded folds an INCOMPLETE set of partials — some
// shards unreachable — into a degraded estimate: the unbiased sum over
// responding shards, extrapolated to the full population by
// |V| / |V_responding| (the responding shards' estimate of the mean
// per-user coverage, applied to every user). totalUsers is the cluster's
// full |V|. Theta reports Σ θ_s over RESPONDING shards only, so callers
// can derive the achieved (weakened) ε from it. Early-stopped rows
// contribute their extrapolated hit counts, as in GatherFrontierPartials,
// so it also folds one sibling's column of a degraded frontier gather.
func GatherPartialsDegraded(parts []Partial, totalUsers int) sampling.Result {
	sortPartials(parts)
	var inf float64
	var totSamples, respTheta int64
	contained, respUsers := 0, 0
	for _, p := range parts {
		totSamples += p.Samples
		respTheta += p.Theta
		contained += p.Contained
		respUsers += p.Users
		if p.Theta > 0 {
			inf += p.effectiveHits() / float64(p.Theta) * float64(p.Users)
		}
	}
	if respUsers > 0 && totalUsers > respUsers {
		inf *= float64(totalUsers) / float64(respUsers)
	}
	if inf < 1 {
		inf = 1
	}
	return sampling.Result{
		Influence: inf,
		Samples:   totSamples,
		Theta:     respTheta,
		Reachable: contained,
	}
}
