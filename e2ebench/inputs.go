package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"slices"
	"strconv"
	"time"

	"pitex"
)

// The system under test is the same in every run: the diggs recipe at
// half scale (7,500 users, ~100k edges, 50 tags) generated from
// systemSeed, with pitexserve's default options (whose seed is also 1).
// The workload seed drives the traffic: requests, Zipf permutation,
// update batches and sweep cohort. Fixing the graph keeps run-to-run
// spread down to what the traffic and the machine contribute.
const (
	systemSeed   = 1
	datasetName  = "diggs"
	datasetScale = 0.5
	cacheEntries = 4096
	zipfExponent = 1.1
)

// Stream salts keep the request, user and update streams of one seed
// independent of each other.
const (
	saltRequests uint64 = 0x5e1e
	saltUpdates  uint64 = 0xadd5
	saltCohort   uint64 = 0xc0de
	saltZipfPerm uint64 = 0x21bf
)

// engineOptions are pitexserve's defaults for the given strategy.
func engineOptions(strategy pitex.Strategy) pitex.Options {
	return pitex.Options{
		Strategy:        strategy,
		Epsilon:         0.7,
		Delta:           1000,
		MaxK:            10,
		Seed:            systemSeed,
		MaxSamples:      5000,
		MaxIndexSamples: 200000,
		CheapBounds:     true,
		TrackUpdates:    true,
	}
}

// serveOptions are pitexserve's serving defaults: pool = GOMAXPROCS,
// queue 4×pool, 5s queue timeout, 30s query timeout, 4,096 cache entries.
func serveOptions() pitex.ServeOptions {
	return pitex.ServeOptions{QueueTimeout: 5 * time.Second, CacheCapacity: cacheEntries, CacheShards: 16}
}

// generateDataset builds the network and tag model every workload serves.
func generateDataset() (*pitex.Network, *pitex.TagModel, error) {
	spec, err := pitex.BaseDatasetSpec(datasetName)
	if err != nil {
		return nil, nil, err
	}
	return pitex.GenerateDatasetSpec(spec.Scaled(datasetScale), systemSeed)
}

// request is one /selling-points query. Prefix is -1 when the request
// carries no prefix tag.
type request struct {
	User, K, M, Prefix int
}

func (r request) path() string {
	q := url.Values{}
	q.Set("user", strconv.Itoa(r.User))
	q.Set("k", strconv.Itoa(r.K))
	if r.M > 1 {
		q.Set("m", strconv.Itoa(r.M))
	}
	if r.Prefix >= 0 {
		q.Set("prefix", strconv.Itoa(r.Prefix))
	}
	return "/selling-points?" + q.Encode()
}

func (r request) String() string {
	return fmt.Sprintf("user=%d k=%d m=%d prefix=%d", r.User, r.K, r.M, r.Prefix)
}

// requestStream draws the seeded request mix: k ∈ {2,3}, one request in
// four with m=3, one in ten with a one-tag prefix. The mix is exact in
// every block of mixBlock requests, shuffled per block, so a short run
// sees the same proportions as a long one. Users are uniform, or Zipf
// over a fixed permutation of the users: which users are popular belongs
// to the population, like the graph, so it does not change with the seed.
//
// Uniform users are drawn stratified: the users ranked by out-degree are
// cut into userStrata equal strata, and every block of userStrata draws
// takes one user, uniform within its stratum, from each stratum in a
// shuffled order. Each user is still drawn with probability 1/users, but
// how many costly hubs a run meets no longer swings with the seed.
type requestStream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	ranked []int // users by out-degree; the Zipf permutation when zipf != nil
	tags   int
	block  []request // the rest of the current shuffled block
	strata []int     // the strata left in the current user block
}

// userStrata is the number of out-degree strata uniform users are drawn
// from: 50 users per stratum on the 7,500-user dataset.
const userStrata = 150

// mixBlock holds each (k, variant) class in its exact share: 4 prefix
// (one in ten), 10 top-3 (one in four) and 26 plain requests, 70% of each
// with k=3, the endpoint's default, and 30% with k=2. A k=2 query costs
// about twice a k=3 one; with an even split the median fell in the gap
// between the two latency modes and swung by 40% between runs.
var mixBlock = func() []request {
	var b []request
	add := func(k2, k3, m, prefix int) {
		for range k2 {
			b = append(b, request{K: 2, M: m, Prefix: prefix})
		}
		for range k3 {
			b = append(b, request{K: 3, M: m, Prefix: prefix})
		}
	}
	add(1, 3, 1, 0)
	add(3, 7, 3, -1)
	add(8, 18, 1, -1)
	return b
}()

// newRequestStream draws requests over the users in ranked, which lists
// every user once, by out-degree (rankedUsers).
func newRequestStream(seed uint64, ranked []int, tags int, zipf bool) *requestStream {
	s := &requestStream{rng: rand.New(rand.NewPCG(seed, saltRequests)), ranked: ranked, tags: tags}
	if zipf {
		s.ranked = rand.New(rand.NewPCG(systemSeed, saltZipfPerm)).Perm(len(ranked))
		s.zipf = rand.NewZipf(s.rng, zipfExponent, 1, uint64(len(ranked)-1))
	}
	return s
}

func (s *requestStream) next() request {
	if len(s.block) == 0 {
		s.block = append(s.block, mixBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	r := s.block[0]
	s.block = s.block[1:]
	if s.zipf != nil {
		r.User = s.ranked[s.zipf.Uint64()]
	} else {
		r.User = s.stratifiedUser()
	}
	if r.Prefix >= 0 {
		r.Prefix = s.rng.IntN(s.tags)
	}
	return r
}

func (s *requestStream) stratifiedUser() int {
	n := min(userStrata, len(s.ranked))
	if len(s.strata) == 0 {
		s.strata = s.rng.Perm(n)
	}
	i := s.strata[0]
	s.strata = s.strata[1:]
	lo, hi := i*len(s.ranked)/n, (i+1)*len(s.ranked)/n
	return s.ranked[lo+s.rng.IntN(hi-lo)]
}

// take draws the next n requests.
func (s *requestStream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// cohort draws n distinct users for the sweep workload: one from each of
// n equal strata of users ranked by out-degree, so the sample is uniform
// but its cost does not swing with how many hubs it caught. The top
// stratum, whose few hubs differ in cost by several times, is always
// represented by its median member. The cohort runs largest out-degree
// first, the usual longest-first batch order, so a sweep's length does
// not hinge on where its slowest user lands.
func cohort(seed uint64, net *pitex.Network, n int) []int {
	rng := rand.New(rand.NewPCG(seed, saltCohort))
	ranked := rankedUsers(net)
	out := make([]int, n)
	for i := range out {
		lo, hi := i*len(ranked)/n, (i+1)*len(ranked)/n
		if i == n-1 {
			out[i] = ranked[(lo+hi)/2]
		} else {
			out[i] = ranked[lo+rng.IntN(hi-lo)]
		}
	}
	slices.SortStableFunc(out, func(a, b int) int { return net.OutDegree(b) - net.OutDegree(a) })
	return out
}

// rankedUsers lists every user by ascending out-degree, ties by id.
func rankedUsers(net *pitex.Network) []int {
	ranked := make([]int, net.NumUsers())
	for u := range ranked {
		ranked[u] = u
	}
	slices.SortStableFunc(ranked, func(a, b int) int { return net.OutDegree(a) - net.OutDegree(b) })
	return ranked
}

// updateBody is the /admin/update JSON body.
type updateBody struct {
	DeleteEdges []updateEdge `json:"delete_edges,omitempty"`
	SetEdges    []updateEdge `json:"set_edges,omitempty"`
	InsertEdges []updateEdge `json:"insert_edges,omitempty"`
}

type updateEdge struct {
	From  int          `json:"from"`
	To    int          `json:"to"`
	Probs []updateProb `json:"probs,omitempty"`
}

type updateProb struct {
	Topic int     `json:"topic"`
	Prob  float64 `json:"prob"`
}

// batch converts the body into an UpdateBatch staged in the order the
// /admin/update handler stages it (deletes, retopics, inserts), so a
// reference engine advanced with it repairs exactly as the server does.
func (b updateBody) batch() *pitex.UpdateBatch {
	var out pitex.UpdateBatch
	probs := func(ps []updateProb) []pitex.TopicProb {
		tp := make([]pitex.TopicProb, len(ps))
		for i, p := range ps {
			tp[i] = pitex.TopicProb{Topic: p.Topic, Prob: p.Prob}
		}
		return tp
	}
	for _, e := range b.DeleteEdges {
		out.DeleteEdge(e.From, e.To)
	}
	for _, e := range b.SetEdges {
		out.SetEdge(e.From, e.To, probs(e.Probs)...)
	}
	for _, e := range b.InsertEdges {
		out.InsertEdge(e.From, e.To, probs(e.Probs)...)
	}
	return &out
}

// opsPerUpdate is one seeded /admin/update batch: two edge inserts, two
// deletes and one retopic. A fixed composition keeps repair cost from
// swinging with the draw.
const opsPerUpdate = 5

// makeUpdates draws n seeded update batches. Every batch is valid against
// the network as the previous batches left it: deletes and retopics name
// live edges, inserts name absent pairs, and no edge is touched twice in
// one batch.
func makeUpdates(net *pitex.Network, seed uint64, n int) ([]updateBody, error) {
	rng := rand.New(rand.NewPCG(seed, saltUpdates))
	// live lists the live edges in edge-id order, as the network would
	// after each batch: deletes leave tombstones, inserts take the next ids.
	var live [][2]int
	exists := make(map[[2]int]bool)
	net.ForEachEdge(func(e pitex.Edge) bool {
		if e.Live() {
			live = append(live, [2]int{e.From, e.To})
			exists[[2]int{e.From, e.To}] = true
		}
		return true
	})
	if len(exists) != len(live) {
		return nil, fmt.Errorf("seeded updates: the network has parallel edges")
	}
	out := make([]updateBody, 0, n)
	for range n {
		probs := func() []updateProb {
			ps := []updateProb{{Topic: rng.IntN(net.NumTopics()), Prob: 0.05 + 0.25*rng.Float64()}}
			if t := rng.IntN(net.NumTopics()); rng.IntN(2) == 0 && t != ps[0].Topic {
				ps = append(ps, updateProb{Topic: t, Prob: 0.05 + 0.25*rng.Float64()})
			}
			return ps
		}
		touched := make(map[[2]int]bool)
		pick := func(absent bool) [2]int {
			for {
				p := live[rng.IntN(len(live))]
				if absent {
					p = [2]int{rng.IntN(net.NumUsers()), rng.IntN(net.NumUsers())}
				}
				if !touched[p] && p[0] != p[1] && exists[p] != absent {
					touched[p] = true
					return p
				}
			}
		}
		var b updateBody
		for range 2 {
			p := pick(true)
			b.InsertEdges = append(b.InsertEdges, updateEdge{From: p[0], To: p[1], Probs: probs()})
		}
		for range 2 {
			p := pick(false)
			b.DeleteEdges = append(b.DeleteEdges, updateEdge{From: p[0], To: p[1]})
		}
		p := pick(false)
		b.SetEdges = append(b.SetEdges, updateEdge{From: p[0], To: p[1], Probs: probs()})
		for _, e := range b.DeleteEdges {
			p := [2]int{e.From, e.To}
			delete(exists, p)
			live = slices.DeleteFunc(live, func(q [2]int) bool { return q == p })
		}
		for _, e := range b.InsertEdges {
			exists[[2]int{e.From, e.To}] = true
			live = append(live, [2]int{e.From, e.To})
		}
		out = append(out, b)
	}
	return out, nil
}
