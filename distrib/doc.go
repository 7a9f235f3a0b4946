// Package distrib is the client half of pitex's distributed serving
// plane: a scatter-gather coordinator over shard servers, each holding a
// slice of the RR-Graph index (built with rrindex.BuildShard so the
// fleet's union is byte-identical to the monolithic sharded index).
//
// Topology: shard servers are arranged in replica groups — the endpoints
// of one group all serve the same shard set, and the groups together
// partition [0, S). The client implements pitex.RemoteFrontierEstimator:
// each best-first frontier expansion sends one FrontierRequest (every
// sibling posterior plus the explorer's stop rule) to every group as
// POST /shard/estimate-frontier. Each server answers with its shards'
// rrindex.PartialFrontier rows — partial hits plus the θ_s/|V_s| gather
// metadata, early-stopped rows carrying their extrapolated hits — from a
// per-generation pool of reused estimators. The client checks the rows'
// shape (checkRows) and folds them with rrindex.GatherFrontierPartials:
// with every group responding, each sibling's estimate is bit-for-bit
// the in-process sharded estimator's under the same stop rule. The
// single-prober path (pitex.RemoteEstimator, POST /shard/estimate,
// rrindex.GatherPartials) remains for the sampled upper bounds of
// non-CheapBounds exploration and for wrappers that do not forward the
// frontier capability.
//
// Robustness: every group fetch runs under a per-shard deadline; after
// an adaptive hedge delay (a latency-window quantile, clamped to the
// deadline) the fetch is hedged to the next replica, and a hard error
// fails over immediately. Endpoints accumulate consecutive-failure
// cooldowns so a dead replica stops being tried first. When a whole
// group misses the deadline, the gather degrades instead of failing:
// rrindex.GatherPartialsDegraded extrapolates over the responding
// shards' |V_s| (per sibling, for frontier scatters) and the answer
// carries the missing shard list and the achieved (weakened) ε —
// degraded but honest, never silently wrong. A reply that fails to
// decode or to pass the row-shape check counts as a missing group.
//
// Updates ride the repair-routing delta path: the coordinator applies a
// batch locally (graph only), fans the same batch to every endpoint
// keyed by the next generation, and each server repairs only the owned
// shards the routing decision (rrindex.RepairShard) says the batch
// touched. Servers double-buffer the previous generation so queries
// in flight across the swap still answer; the client's generation stamp
// moves only after the fan-out completes.
//
// Self-healing: the client journals every applied delta body for the
// last Options.JournalHorizon generations, and a background reconciler
// (Options.ReconcileInterval) continuously compares each endpoint's
// generation to the head. An endpoint a few generations behind is
// replayed the exact missed bodies in order — because shard repair is a
// deterministic function of (state, body, generation), replay leaves the
// replica byte-identical to its siblings. An endpoint behind the journal
// horizon is healed by full-state transfer instead: the reconciler
// copies a serialized snapshot (GET /shard/resync) from an in-group
// sibling already at head and installs it on the straggler
// (POST /shard/resync) — a copy of healthy state, never a rebuild, so
// byte-identity holds there too. While lagging, an endpoint is excluded
// from scatter candidacy so queries never mix generations; heal attempts
// back off with capped exponential growth plus seeded jitter
// (Options.HealBackoff, Options.JitterSeed). Status and the Prometheus
// registration expose journal replays, resyncs, heal failures, and
// per-endpoint lag.
//
// Failure contract, end to end: a query answer is exact (all groups
// responded at one generation) or carries an explicit degraded block
// with the achieved ε — never silently wrong; and a fleet that stops
// failing converges back to the head generation without operator
// intervention or restarts. The internal/faultinject failpoints wired
// through roundTrip and the update fan-out (see cmd/pitexchaos) exist to
// prove both properties deterministically.
package distrib
