package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/serve"
)

// listener is one loopback HTTP server owned by the benchmark.
type listener struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to exit.
func (l *listener) close() {
	_ = l.hs.Close() // force-closes connections; nothing is in flight by now
	<-l.done
}

// waitReady polls base+"/readyz" until it answers 200.
func waitReady(ctx context.Context, c *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// rig is a running /selling-points server: in process, or a coordinator
// over loopback shard servers.
type rig struct {
	srv    *serve.Server
	front  *listener
	proto  *pitex.Engine // the engine handed to serve.New; nil for a coordinator
	shards []*shardRig
	remote *distrib.Client
	// shardBuild is each shard server's time from construction to ready.
	shardBuild []time.Duration
}

type shardRig struct {
	ss *serve.ShardServer
	l  *listener
}

func (r *rig) close() {
	r.front.close()
	r.srv.Close() // also closes a coordinator's distrib client
	for _, s := range r.shards {
		s.l.close()
		s.ss.Close()
	}
}

// startServe builds an in-process server: index build, pool clones,
// loopback listener, and the first 200 from /readyz.
func startServe(ctx context.Context, net *pitex.Network, model *pitex.TagModel, tr *tracer, probe *http.Client) (*rig, error) {
	var en *pitex.Engine
	if err := tr.timed("index", func() (err error) {
		en, err = pitex.NewEngine(net, model, engineOptions(pitex.StrategyIndexPruned))
		return err
	}); err != nil {
		return nil, err
	}
	var srv *serve.Server
	if err := tr.timed("pool", func() (err error) {
		srv, err = serve.New(en, serveOptions())
		return err
	}); err != nil {
		return nil, err
	}
	l, err := front(srv, tr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &rig{srv: srv, proto: en, front: l}
	if err := tr.timed("ready", func() error { return waitReady(ctx, probe, l.base) }); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// front listens for the server's handler, wrapped in the tracing
// middleware on a traced run.
func front(srv *serve.Server, tr *tracer) (*listener, error) {
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = serveMiddleware(tr, h)
	}
	return listen(h)
}

// distribShards is the shard count of distrib-s3: three single-shard
// servers, one group each.
const distribShards = 3

// distribOptions are the engine options of the distrib-s3 fleet, also
// used for its in-process reference.
func distribOptions() pitex.Options {
	o := engineOptions(pitex.StrategyIndexPruned)
	o.IndexShards = distribShards
	return o
}

// startDistrib builds three single-shard servers on loopback listeners,
// waits until each is ready, dials them, and fronts them with a
// coordinator.
func startDistrib(ctx context.Context, net *pitex.Network, model *pitex.TagModel, tr *tracer, probe *http.Client) (*rig, error) {
	opts := distribOptions()
	r := &rig{shardBuild: make([]time.Duration, distribShards)}
	fail := func(err error) (*rig, error) {
		for _, s := range r.shards {
			s.l.close()
			s.ss.Close()
		}
		return nil, err
	}
	start := time.Now()
	groups := make([][]string, distribShards)
	for s := range distribShards {
		ss, err := serve.NewShardServer(net, model, opts, serve.ShardConfig{TotalShards: distribShards, Owned: []int{s}})
		if err != nil {
			return fail(err)
		}
		var h http.Handler = ss.Handler()
		if tr != nil {
			h = shardMiddleware(tr, h)
		}
		l, err := listen(h)
		if err != nil {
			ss.Close()
			return fail(err)
		}
		r.shards = append(r.shards, &shardRig{ss: ss, l: l})
		groups[s] = []string{l.base}
	}
	errs := make([]error, distribShards)
	var wg sync.WaitGroup
	for s, sh := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = sh.ss.WaitReady(ctx)
			r.shardBuild[s] = time.Since(start)
			tr.record(span{Name: layerSetup + ".shard", ID: tr.newID(), Start: start, End: start.Add(r.shardBuild[s])})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}
	dopts := distrib.Options{JitterSeed: systemSeed}
	if tr != nil {
		dopts.HTTPClient = &http.Client{Transport: tracedTransport{inner: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}}
	}
	var client *distrib.Client
	if err := tr.timed("dial", func() (err error) {
		client, err = distrib.Dial(ctx, groups, dopts)
		return err
	}); err != nil {
		return fail(err)
	}
	var est pitex.RemoteEstimator = client
	if tr != nil {
		est = &tracedEstimator{inner: client, t: tr}
	}
	en, err := pitex.NewRemoteEngine(net, model, opts, est)
	if err == nil {
		r.srv, err = serve.NewCoordinator(en, client, serveOptions())
	}
	if err != nil {
		client.Close()
		return fail(err)
	}
	r.remote = client
	if r.front, err = front(r.srv, tr); err != nil {
		r.srv.Close()
		return fail(err)
	}
	if err := tr.timed("ready", func() error { return waitReady(ctx, probe, r.front.base) }); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}
