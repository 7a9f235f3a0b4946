package main

import (
	"context"
	"math"
	"net/http"
	"slices"
	"testing"

	"pitex"
	"pitex/analytics"
)

// answerOf renders a reference result the way /selling-points does.
func answerOf(r pitex.Result, m int) answer {
	a := answer{Tags: r.Tags, Influence: r.Influence, Elapsed: r.Elapsed.String()}
	if m > 1 {
		for _, alt := range r.Alternatives {
			a.Alternatives = append(a.Alternatives, alternative{Tags: alt.TagNames, Influence: alt.Influence})
		}
	}
	return a
}

func testEngine(t *testing.T, opts pitex.Options) *pitex.Engine {
	t.Helper()
	net, model, err := generateDataset()
	if err != nil {
		t.Fatal(err)
	}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func answered(t *testing.T, en *pitex.Engine, req request, genLo, genHi uint64) outcome {
	t.Helper()
	res, err := query(en.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{Req: req, Status: http.StatusOK, Ans: answerOf(res, req.M), GenLo: genLo, GenHi: genHi}
}

func TestExactCheckerCountsCorruptedAnswers(t *testing.T) {
	en := testEngine(t, engineOptions(pitex.StrategyIndexPruned))
	reqs := []request{
		{User: 11, K: 2, M: 1, Prefix: -1},
		{User: 12, K: 3, M: 3, Prefix: -1},
		{User: 13, K: 2, M: 1, Prefix: 4},
	}
	var outs []outcome
	for _, r := range reqs {
		outs = append(outs, answered(t, en, r, 0, 0))
	}
	if wrong := newExactChecker([]*pitex.Engine{en}).check(outs, 2); wrong != 0 {
		t.Fatalf("correct answers: %d counted wrong", wrong)
	}
	corrupt := []func(*answer){
		func(a *answer) { a.Influence = math.Nextafter(a.Influence, math.Inf(1)) },
		func(a *answer) { a.Tags = append([]int{a.Tags[0] + 1}, a.Tags[1:]...) },
		func(a *answer) { a.Tags = a.Tags[:1] },
	}
	for i, c := range corrupt {
		bad := slices.Clone(outs)
		a := bad[0].Ans
		a.Tags = slices.Clone(a.Tags)
		c(&a)
		bad[0].Ans = a
		if wrong := newExactChecker([]*pitex.Engine{en}).check(bad, 2); wrong != 1 {
			t.Errorf("corruption %d: %d counted wrong, want 1", i, wrong)
		}
	}
	bad := slices.Clone(outs)
	alts := slices.Clone(bad[1].Ans.Alternatives)
	alts[2].Influence *= 1.5
	bad[1].Ans.Alternatives = alts
	if wrong := newExactChecker([]*pitex.Engine{en}).check(bad, 1); wrong != 1 {
		t.Errorf("corrupted alternative: %d counted wrong, want 1", wrong)
	}
}

// An answer computed at generation 0 is stale once the outcome's bracket
// starts at generation 1, whose update changed that user's answer.
func TestExactCheckerRejectsStaleGeneration(t *testing.T) {
	en0 := testEngine(t, engineOptions(pitex.StrategyIndexPruned))
	user := -1
	for u := range en0.Network().NumUsers() {
		if en0.Network().OutDegree(u) >= 5 {
			user = u
			break
		}
	}
	var b pitex.UpdateBatch
	en0.Network().ForEachEdge(func(e pitex.Edge) bool {
		if e.From == user && e.Live() {
			b.DeleteEdge(e.From, e.To)
		}
		return true
	})
	en1, _, err := en0.ApplyUpdates(&b)
	if err != nil {
		t.Fatal(err)
	}
	req := request{User: user, K: 2, M: 1, Prefix: -1}
	old := answered(t, en0, req, 0, 0)
	if cur := answered(t, en1, req, 1, 1); digestOf(cur.Ans).identical(digestOf(old.Ans)) {
		t.Fatalf("deleting user %d's out-edges left its answer unchanged", user)
	}
	refs := []*pitex.Engine{en0, en1}
	stale := old
	stale.GenLo, stale.GenHi = 1, 1
	if wrong := newExactChecker(refs).check([]outcome{stale}, 1); wrong != 1 {
		t.Errorf("stale-generation answer: %d counted wrong, want 1", wrong)
	}
	racing := old
	racing.GenLo, racing.GenHi = 0, 1 // sent before the swap, answered after
	if wrong := newExactChecker(refs).check([]outcome{racing}, 1); wrong != 0 {
		t.Errorf("answer inside its generation bracket: %d counted wrong, want 0", wrong)
	}
}

func TestApproxCheckerRejectsInvalidAnswers(t *testing.T) {
	ref := testEngine(t, distribOptions())
	ac := &approxChecker{ref: ref, epsilon: ref.Options().Epsilon, tags: ref.Model().NumTags()}
	good := answered(t, ref, request{User: 21, K: 3, M: 1, Prefix: -1}, 0, 0)
	withPrefix := answered(t, ref, request{User: 22, K: 2, M: 1, Prefix: 7}, 0, 0)
	if wrong, same, n := ac.check([]outcome{good, withPrefix}); wrong != 0 || same != 2 || n != 2 {
		t.Fatalf("reference answers: wrong=%d identical=%d answered=%d, want 0, 2, 2", wrong, same, n)
	}
	mutate := func(o outcome, tags ...int) outcome {
		o.Ans.Tags = tags
		return o
	}
	t0 := good.Ans.Tags
	for name, o := range map[string]outcome{
		"duplicate tag":    mutate(good, t0[0], t0[0], t0[1]),
		"tag out of range": mutate(good, t0[0], t0[1], ref.Model().NumTags()),
		"wrong k":          mutate(good, t0[0], t0[1]),
		"unsorted":         mutate(good, t0[2], t0[1], t0[0]),
		"prefix missing":   mutate(withPrefix, 0, 1), // the prefix is tag 7
	} {
		if wrong, _, _ := ac.check([]outcome{o}); wrong != 1 {
			t.Errorf("%s: %d counted wrong, want 1", name, wrong)
		}
	}
	// A valid set that is not the reference's answer is accepted only on
	// the (1−ε) rule, and never counted identical.
	alt := good
	alt.Ans.Influence = math.Nextafter(good.Ans.Influence, 0)
	if wrong, same, _ := ac.check([]outcome{alt}); wrong != 0 || same != 0 {
		t.Errorf("same tags, other influence: wrong=%d identical=%d, want 0, 0", wrong, same)
	}
}

func TestLeaderboardMismatchesCountsWrongRows(t *testing.T) {
	en := testEngine(t, engineOptions(pitex.StrategyDelay))
	users := cohort(3, en.Network(), 12)
	sweep := func(workers int) *analytics.Leaderboard {
		lb, err := analytics.Run(context.Background(), en, analytics.Options{Workers: workers, ChunkSize: 1, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		return lb
	}
	want, got := sweep(1), sweep(2)
	if n := leaderboardMismatches(got, want); n != 0 {
		t.Fatalf("Workers=2 sweep differs from Workers=1 in %d rows", n)
	}
	bad := *got
	bad.TopUsers = slices.Clone(got.TopUsers)
	bad.TopUsers[3].Influence++
	if n := leaderboardMismatches(&bad, want); n != 1 {
		t.Errorf("one wrong leaderboard row: %d counted, want 1", n)
	}
	bad = *got
	bad.TagHistogram = got.TagHistogram[1:]
	if n := leaderboardMismatches(&bad, want); n == 0 {
		t.Error("a missing histogram row was not counted")
	}
}
