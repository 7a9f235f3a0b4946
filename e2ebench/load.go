package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// answer is the part of a /selling-points response the checks read.
type answer struct {
	Tags         []int         `json:"tag_ids"`
	Influence    float64       `json:"influence"`
	Cached       bool          `json:"cached"`
	Elapsed      string        `json:"elapsed"`
	Alternatives []alternative `json:"alternatives"`
}

type alternative struct {
	Tags      []string `json:"tags"`
	Influence float64  `json:"influence"`
}

// elapsed is the engine's reported query time.
func (a answer) elapsed() time.Duration {
	d, _ := time.ParseDuration(a.Elapsed)
	return d
}

// outcome is one request's record. Due is zero in the closed loop. GenLo
// and GenHi bracket the index generations the answer may come from: the
// generation acknowledged when the request was sent, and the last one
// whose update had started when the answer arrived.
type outcome struct {
	Req              request
	Due, Sent, Done  time.Time
	Status           int
	Err              error
	Ans              answer
	GenLo, GenHi     uint64
	SpanID, EngineID uint64
}

func (o outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

// latency is measured from when the request was due (open loop) or sent
// (closed loop), so a request waiting behind a stall counts its wait.
func (o outcome) latency() time.Duration {
	if o.Due.IsZero() {
		return o.Done.Sub(o.Sent)
	}
	return o.Done.Sub(o.Due)
}

// target sends /selling-points requests to one server.
type target struct {
	base   string
	client *http.Client
	// genLo and genHi, when set, stamp each outcome's generation bracket.
	genLo, genHi func() uint64
	// spans, when set, records a client span per request and links it to
	// the server-side spans through a request header.
	spans *tracer
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (t *target) do(ctx context.Context, req request, due time.Time) outcome {
	o := outcome{Req: req, Due: due}
	if t.genLo != nil {
		o.GenLo = t.genLo()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+req.path(), nil)
	if err != nil {
		o.Err = err
		return o
	}
	traced := t.spans.on()
	var reqID, clientID uint64
	if traced {
		reqID, clientID = t.spans.newRequest(), t.spans.newID()
		hreq.Header.Set(headerSpan, formatRef(spanRef{req: reqID, parent: clientID}))
	}
	o.Sent = time.Now()
	resp, err := t.client.Do(hreq)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.Status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(body, &o.Ans)
		} else if err == nil {
			err = fmt.Errorf("%s: status %d: %s", req, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if ref, ok := parseRef(resp.Header.Get(headerSpan)); ok {
			o.SpanID, o.EngineID = ref.parent, ref.engine
		}
	}
	o.Done = time.Now()
	o.Err = err
	if t.genHi != nil {
		o.GenHi = t.genHi()
	}
	if traced {
		t.spans.record(span{Name: layerClient, ID: clientID, Req: reqID, Start: o.Sent, End: o.Done})
		if o.ok() && !o.Ans.Cached && o.SpanID != 0 {
			t.spans.engineSpan(reqID, o.EngineID, o.SpanID, o.Ans.elapsed())
		}
	}
	return o
}

// openLoop sends reqs[i] when it falls due at start + i/rate, over at most
// conns connections: a request that finds every connection busy waits,
// and its latency, timed from when it was due, counts the wait.
func openLoop(ctx context.Context, t *target, reqs []request, rate float64, conns int) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				out[i] = t.do(ctx, reqs[i], due)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is answered, until d has passed; requests come from
// one shared seeded stream, in order.
func closedLoop(ctx context.Context, t *target, stream *requestStream, clients int, d time.Duration) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var out []outcome
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				mu.Lock()
				req := stream.next()
				mu.Unlock()
				o := t.do(ctx, req, time.Time{})
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// countOK is how many of outs were answered.
func countOK(outs []outcome) int {
	var n int
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

// sliceQuantile is the median over slices of each slice's q-quantile
// latency.
func sliceQuantile(slices [][]outcome, q float64) float64 {
	var qs []float64
	for _, sl := range slices {
		qs = append(qs, quantile(latenciesMS(sl), q))
	}
	return median(qs)
}

// lateness is how late the generator sent each open-loop request.
func lateness(outs []outcome) []float64 {
	var ms []float64
	for _, o := range outs {
		if !o.Due.IsZero() && !o.Sent.IsZero() {
			ms = append(ms, durMS(o.Sent.Sub(o.Due)))
		}
	}
	return ms
}

// latenciesMS returns each request's latency in ms; a failed or refused
// request counts as +Inf, so it misses every latency limit.
func latenciesMS(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = math.Inf(1)
		if o.ok() {
			ms[i] = durMS(o.latency())
		}
	}
	return ms
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileLadder lists the percentiles a timing is reported at.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestPercentile returns the highest ladder percentile with at least
// ten of n samples beyond it, or 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if n-rank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples, immune to 0.9*100 landing a hair above 90.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(rank(q, len(s)), len(s))-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
