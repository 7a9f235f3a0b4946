package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
)

// Span names, one per layer boundary the traced run wraps.
const (
	layerClient   = "http.client"      // benchmark client round trip
	layerServe    = "serve.handler"    // middleware around Server.Handler()
	layerEngine   = "engine.query"     // the engine's reported elapsed
	layerEstimate = "distrib.estimate" // RemoteEstimator wrapper call
	layerShard    = "shard.handler"    // middleware around ShardServer.Handler()
	layerChunk    = "analytics.chunk"  // interval between sweep progress reports
	layerSetup    = "setup"            // prefix of the set-up call spans
)

// headerSpan carries a spanRef across the loopback wire, from the
// benchmark client to the server middleware and back, and from the
// distrib transport to the shard middleware.
const headerSpan = "X-Bench-Span"

// span is one traced interval. Spans of one request share Req.
type span struct {
	Name       string    `json:"name"`
	ID         uint64    `json:"id"`
	Parent     uint64    `json:"parent,omitempty"`
	Req        uint64    `json:"req,omitempty"`
	Start, End time.Time `json:"-"`
	StartNS    int64     `json:"start_ns"`
	EndNS      int64     `json:"end_ns"`
	Bytes      int64     `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// pending holds engine spans not yet placed (see engineSpan).
	pending []pendingEngine
	ids     atomic.Uint64
	reqs    atomic.Uint64
	active  atomic.Bool // wrappers record only while active
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.active.Store(true)
	return t
}

func (t *tracer) on() bool { return t != nil && t.active.Load() }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) newRequest() uint64 { return t.reqs.Add(1) }

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	s.StartNS, s.EndNS = s.Start.Sub(t.epoch).Nanoseconds(), s.End.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a set-up call as a span and returns its error.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(span{Name: layerSetup + "." + name, ID: t.newID(), Start: start, End: time.Now()})
	return err
}

// engineSpan notes the engine's query as a child of the server span. No
// span inside the program is read, so the interval is placed from the
// response's elapsed field, ending where the handler span ends; it is
// resolved in snapshot, once the handler span is surely recorded.
func (t *tracer) engineSpan(req, id, parent uint64, elapsed time.Duration) {
	t.mu.Lock()
	t.pending = append(t.pending, pendingEngine{req: req, id: id, parent: parent, elapsed: elapsed})
	t.mu.Unlock()
}

type pendingEngine struct {
	req, id, parent uint64
	elapsed         time.Duration
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ends := make(map[uint64]time.Time, len(t.spans))
	for _, s := range t.spans {
		ends[s.ID] = s.End
	}
	out := slices.Clone(t.spans)
	for _, p := range t.pending {
		if end, ok := ends[p.parent]; ok {
			s := span{Name: layerEngine, ID: p.id, Parent: p.parent, Req: p.req, Start: end.Add(-p.elapsed), End: end}
			s.StartNS, s.EndNS = s.Start.Sub(t.epoch).Nanoseconds(), s.End.Sub(t.epoch).Nanoseconds()
			out = append(out, s)
		}
	}
	return out
}

// writeJSON writes every span, one JSON object per line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanRef names a request and the span a callee should hang under.
type spanRef struct {
	req, parent, engine uint64
}

func formatRef(r spanRef) string { return fmt.Sprintf("%d,%d,%d", r.req, r.parent, r.engine) }

func parseRef(s string) (spanRef, bool) {
	f := strings.Split(s, ",")
	if len(f) != 3 {
		return spanRef{}, false
	}
	var v [3]uint64
	for i := range f {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return spanRef{}, false
		}
		v[i] = n
	}
	return spanRef{req: v[0], parent: v[1], engine: v[2]}, true
}

type refKey struct{}

// serveMiddleware times Server.Handler(). It answers the client with the
// ids of its own span and of the engine span the client records from the
// response, and hands the engine span id down the request context, where
// the RemoteEstimator wrapper finds it.
func serveMiddleware(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		in, _ := parseRef(r.Header.Get(headerSpan))
		ref := spanRef{req: in.req, parent: t.newID(), engine: t.newID()}
		w.Header().Set(headerSpan, formatRef(ref))
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), refKey{}, ref)))
		t.record(span{Name: layerServe, ID: ref.parent, Parent: in.parent, Req: ref.req, Start: start, End: time.Now()})
	})
}

// tracedEstimator wraps the coordinator's *distrib.Client where it is
// handed to pitex.NewRemoteEngine, timing every scatter-gather call.
type tracedEstimator struct {
	inner pitex.RemoteEstimator
	t     *tracer
}

func (e *tracedEstimator) EstimateRemote(ctx context.Context, user int, probe pitex.RemoteProbe) (pitex.RemoteEstimate, error) {
	if !e.t.on() {
		return e.inner.EstimateRemote(ctx, user, probe)
	}
	in, _ := ctx.Value(refKey{}).(spanRef)
	ref := spanRef{req: in.req, parent: e.t.newID()}
	start := time.Now()
	r, err := e.inner.EstimateRemote(context.WithValue(ctx, refKey{}, ref), user, probe)
	e.t.record(span{Name: layerEstimate, ID: ref.parent, Parent: in.engine, Req: in.req, Start: start, End: time.Now()})
	return r, err
}

// tracedTransport is the distrib client's transport in the traced run: it
// forwards the estimate call's spanRef to the shard middleware.
type tracedTransport struct{ inner http.RoundTripper }

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(refKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(headerSpan, formatRef(ref))
	}
	return tt.inner.RoundTrip(r)
}

// shardMiddleware times ShardServer.Handler() and counts the bytes each
// estimate request moves in both directions.
func shardMiddleware(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, ok := parseRef(r.Header.Get(headerSpan))
		if !t.on() || !ok {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.record(span{Name: layerShard, ID: t.newID(), Parent: in.parent, Req: in.req,
			Start: start, End: time.Now(), Bytes: max(r.ContentLength, 0) + cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		covered := coveredWithin(s, children[s.ID])
		out[s.Name] = append(out[s.Name], max(0, s.dur()-covered))
	}
	return out
}

// coveredWithin is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredWithin(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
