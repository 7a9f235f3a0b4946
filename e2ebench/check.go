package main

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"pitex"
	"pitex/analytics"
)

// The answer checks run untimed, after the timed phases. Every wrong
// answer counts as a failure.

// digest is the comparable part of an answer: tag ids, influence bits,
// and the ranked alternatives of a top-m query.
type digest struct {
	tags      []int
	influence float64
	alts      []alternative
}

func digestOf(a answer) digest {
	return digest{tags: a.Tags, influence: a.Influence, alts: a.Alternatives}
}

func digestResult(r pitex.Result, m int) digest {
	d := digest{tags: r.Tags, influence: r.Influence}
	if m > 1 {
		for _, a := range r.Alternatives {
			d.alts = append(d.alts, alternative{Tags: a.TagNames, Influence: a.Influence})
		}
	}
	return d
}

// identical compares bit for bit.
func (d digest) identical(o digest) bool {
	if !slices.Equal(d.tags, o.tags) || math.Float64bits(d.influence) != math.Float64bits(o.influence) ||
		len(d.alts) != len(o.alts) {
		return false
	}
	for i := range d.alts {
		if !slices.Equal(d.alts[i].Tags, o.alts[i].Tags) ||
			math.Float64bits(d.alts[i].Influence) != math.Float64bits(o.alts[i].Influence) {
			return false
		}
	}
	return true
}

// query answers req on an engine, as the server's pool would.
func query(en *pitex.Engine, req request) (pitex.Result, error) {
	if req.Prefix >= 0 {
		return en.QueryWithPrefixCtx(context.Background(), req.User, []int{req.Prefix}, req.K)
	}
	return en.QueryTopCtx(context.Background(), req.User, req.K, req.M)
}

// exactChecker holds one reference engine per index generation and
// requires each answer to be bit-identical to the reference at some
// generation in the outcome's bracket. References are memoized per
// (generation, request), so repeated keys are answered once.
type exactChecker struct {
	refs []*pitex.Engine // refs[g] is the engine at generation g

	mu   sync.Mutex
	memo map[memoKey]digest
}

type memoKey struct {
	gen uint64
	req request
}

func newExactChecker(refs []*pitex.Engine) *exactChecker {
	return &exactChecker{refs: refs, memo: make(map[memoKey]digest)}
}

// reference computes (or recalls) the reference digest on clone en, which
// must be a clone of refs[gen] owned by the caller's goroutine.
func (c *exactChecker) reference(en *pitex.Engine, gen uint64, req request) (digest, error) {
	key := memoKey{gen, req}
	c.mu.Lock()
	d, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return d, nil
	}
	res, err := query(en, req)
	if err != nil {
		return digest{}, err
	}
	d = digestResult(res, req.M)
	c.mu.Lock()
	c.memo[key] = d
	c.mu.Unlock()
	return d, nil
}

// check returns the number of wrong answers among outs, spreading the
// reference queries over workers goroutines (one engine clone per
// generation each). Each worker takes a contiguous run of the outcomes in
// generation order, so it clones only the generations of its share.
// Failed requests are not counted here: they already count as failures.
func (c *exactChecker) check(outs []outcome, workers int) int {
	order := make([]int, len(outs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(outs[a].GenLo, outs[b].GenLo) })
	var wrong int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones := make(map[uint64]*pitex.Engine)
			var bad int
			for _, i := range order[w*len(order)/workers : (w+1)*len(order)/workers] {
				if o := outs[i]; o.ok() && !c.matches(clones, o) {
					bad++
				}
			}
			mu.Lock()
			wrong += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return wrong
}

func (c *exactChecker) matches(clones map[uint64]*pitex.Engine, o outcome) bool {
	got := digestOf(o.Ans)
	for g := o.GenLo; g <= o.GenHi && g < uint64(len(c.refs)); g++ {
		en := clones[g]
		if en == nil {
			en = c.refs[g].Clone()
			clones[g] = en
		}
		want, err := c.reference(en, g, o.Req)
		if err == nil && want.identical(got) {
			return true
		}
	}
	return false
}

// approxChecker accepts a coordinator answer when it names k distinct
// valid tags (including the prefix, if any) and either is bit-identical to
// the in-process reference with the same shard layout or, estimated by
// that reference, reaches (1−ε) of the reference's best.
type approxChecker struct {
	ref     *pitex.Engine
	epsilon float64
	tags    int
}

// check returns the number of wrong answers and of answers bit-identical
// to the reference, among the successful outcomes.
func (c *approxChecker) check(outs []outcome) (wrong, identical, answered int) {
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		answered++
		ok, same, err := c.verdict(o)
		if err != nil || !ok {
			wrong++
		}
		if same {
			identical++
		}
	}
	return wrong, identical, answered
}

func (c *approxChecker) verdict(o outcome) (ok, identical bool, err error) {
	tags := o.Ans.Tags
	if len(tags) != o.Req.K || !slices.IsSorted(tags) || len(slices.Compact(slices.Clone(tags))) != len(tags) {
		return false, false, nil
	}
	if tags[0] < 0 || tags[len(tags)-1] >= c.tags {
		return false, false, nil
	}
	if o.Req.Prefix >= 0 && !slices.Contains(tags, o.Req.Prefix) {
		return false, false, nil
	}
	best, err := query(c.ref, o.Req)
	if err != nil {
		return false, false, err
	}
	if slices.Equal(best.Tags, tags) && math.Float64bits(best.Influence) == math.Float64bits(o.Ans.Influence) {
		return true, true, nil
	}
	got, err := c.ref.EstimateInfluence(o.Req.User, tags)
	if err != nil {
		return false, false, err
	}
	return got >= (1-c.epsilon)*best.Influence, false, nil
}

// leaderboardMismatches counts the rows of got that differ from want,
// plus the users whose query failed during the sweep.
func leaderboardMismatches(got, want *analytics.Leaderboard) int {
	bad := got.Errors
	if got.UsersSwept != want.UsersSwept {
		bad += abs(got.UsersSwept - want.UsersSwept)
	}
	rows := func(a, b int) int { return max(a, b) }
	for i := range rows(len(got.TopUsers), len(want.TopUsers)) {
		if i >= len(got.TopUsers) || i >= len(want.TopUsers) || !sameScore(got.TopUsers[i], want.TopUsers[i]) {
			bad++
		}
	}
	for i := range rows(len(got.TagHistogram), len(want.TagHistogram)) {
		if i >= len(got.TagHistogram) || i >= len(want.TagHistogram) || got.TagHistogram[i] != want.TagHistogram[i] {
			bad++
		}
	}
	return bad
}

func sameScore(a, b analytics.UserScore) bool {
	return a.User == b.User && slices.Equal(a.Tags, b.Tags) &&
		math.Float64bits(a.Influence) == math.Float64bits(b.Influence)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
