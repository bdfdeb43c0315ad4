package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resmod/internal/apps"
	"resmod/internal/dist"
	"resmod/internal/telemetry"
)

// trialStats aggregates trial wall times by rank count, as reported
// through the faultsim telemetry Sink.
type trialStats struct {
	mu       sync.Mutex
	sum      map[int]time.Duration
	n        map[int]int
	abnormal atomic.Int64
	retried  atomic.Int64
}

func newTrialStats() *trialStats {
	return &trialStats{sum: make(map[int]time.Duration), n: make(map[int]int)}
}

// sink returns a telemetry.Sink recording each trial as a span under
// parent and into the procs bucket (0 when the rank count is unknown).
func (ts *trialStats) sink(tr *tracer, trace, parent int64, procs int) telemetry.Sink {
	return &trialSink{ts: ts, tr: tr, trace: trace, parent: parent, procs: procs}
}

func (ts *trialStats) report(rc *runCtx) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, p := range []int{1, 4, 16, 64} {
		if ts.n[p] > 0 {
			rc.set(fmt.Sprintf("faultsim.trial_ms.p%d", p), float64(ts.sum[p])/float64(ts.n[p])/1e6)
			rc.info("faultsim.trial_ms.p%d: mean over %d trials", p, ts.n[p])
		}
	}
	rc.set("faultsim.abnormal", float64(ts.abnormal.Load()))
	rc.set("faultsim.retried", float64(ts.retried.Load()))
}

type trialSink struct {
	ts            *trialStats
	tr            *tracer
	trace, parent int64
	procs         int
}

func (s *trialSink) TrialDone(outcome string, d time.Duration) {
	end := time.Now()
	s.tr.add(s.trace, s.parent, "faultsim.trial", outcome, end.Add(-d), end)
	s.ts.mu.Lock()
	s.ts.sum[s.procs] += d
	s.ts.n[s.procs]++
	s.ts.mu.Unlock()
}
func (s *trialSink) TrialAbnormal()             { s.ts.abnormal.Add(1) }
func (s *trialSink) TrialRetried()              { s.ts.retried.Add(1) }
func (s *trialSink) GoldenRun(time.Duration)    {}
func (s *trialSink) CheckpointWrite()           {}
func (s *trialSink) CampaignDone(time.Duration) {}

// shardTimer wraps a worker's HTTP handler and times each POST
// /v1/shards: the worker-side time of one shard.
type shardTimer struct {
	tr    *tracer
	trace int64
	mu    sync.Mutex
	times []time.Duration
}

func (st *shardTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/shards" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		st.mu.Lock()
		st.times = append(st.times, end.Sub(start))
		st.mu.Unlock()
		st.tr.add(st.trace, 0, "dist.shard", "shard", start, end)
	})
}

func (st *shardTimer) snapshot() []time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]time.Duration(nil), st.times...)
}

// fleet is a dist coordinator pool with in-process workers.  Each
// worker's handler is served behind the benchmark's own listener (the
// address it advertises), so shard handling can be timed from outside.
type fleet struct {
	pool     *dist.Pool
	shards   *shardTimer
	dispatch *roundTripTimer
	servers  []*http.Server
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// startFleet starts a coordinator pool and n workers, each running
// trialWorkers trials at once, and waits until all have registered.
// Shards and the workers' trials are recorded under trace in tr, and
// trials also into trials, with an unknown rank count.
func startFleet(ctx context.Context, n, trialWorkers int, tr *tracer, trace int64, trials *trialStats) (*fleet, error) {
	f := &fleet{pool: dist.NewPool(dist.PoolConfig{}), shards: &shardTimer{tr: tr, trace: trace},
		dispatch: installDispatchTimer()}
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	coord, err := f.serve(f.pool.Handler())
	if err != nil {
		return nil, err
	}
	wctx = telemetry.With(wctx, telemetry.New(nil, nil, trials.sink(tr, trace, 0, 0)))
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator:    coord,
			Advertise:      "http://" + ln.Addr().String(),
			Name:           fmt.Sprintf("bench-w%d", i),
			Workers:        trialWorkers,
			HeartbeatEvery: 100 * time.Millisecond,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		f.serveOn(ln, f.shards.wrap(w.Handler()))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(wctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.pool.Stats().WorkersAlive < n {
		if time.Now().After(deadline) {
			return nil, errors.New("dist workers did not register within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ok = true
	return f, nil
}

// serve starts an HTTP server for h on a fresh loopback port and
// returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serveOn(ln, h)
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln)
	}()
}

// stop shuts the workers and servers down and waits for them.
func (f *fleet) stop() {
	f.cancel()
	for _, hs := range f.servers {
		_ = hs.Close()
	}
	f.wg.Wait()
}

// roundTripTimer times the coordinator's shard dispatches from the
// client side.  The pool's HTTP client uses http.DefaultTransport, so the
// timer is installed there once, before any client runs.
type roundTripTimer struct {
	base  http.RoundTripper
	mu    sync.Mutex
	total time.Duration
	n     int
}

var (
	dispatchTimer     *roundTripTimer
	dispatchTimerOnce sync.Once
)

func installDispatchTimer() *roundTripTimer {
	dispatchTimerOnce.Do(func() {
		dispatchTimer = &roundTripTimer{base: http.DefaultTransport}
		http.DefaultTransport = dispatchTimer
	})
	return dispatchTimer
}

func (rt *roundTripTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/shards" {
		return rt.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := rt.base.RoundTrip(r)
	d := time.Since(start)
	rt.mu.Lock()
	rt.total += d
	rt.n++
	rt.mu.Unlock()
	return resp, err
}

// reportDist records the dist layer's metrics for the fleet's one
// prediction.
func reportDist(rc *runCtx, f *fleet, distribute time.Duration) {
	rt := f.dispatch
	st := f.pool.Stats()
	shards := f.shards.snapshot()
	var handler time.Duration
	for _, d := range shards {
		handler += d
	}
	rc.set("dist.distribute_s", distribute.Seconds())
	rc.set("dist.shard_ms", median(durSecs(shards))*1e3)
	rc.timingLine("dist.shard_ms", scale(durSecs(shards), 1e3), "ms")
	rt.mu.Lock()
	if rt.n > 0 {
		rc.set("dist.dispatch_overhead_ms", float64(rt.total-handler)/float64(rt.n)/1e6)
		rc.info("dist.dispatch_overhead_ms: (client round trips %.3f s - worker handler %.3f s) / %d shards",
			rt.total.Seconds(), handler.Seconds(), rt.n)
	}
	rt.mu.Unlock()
	rc.set("dist.shards", float64(st.ShardsCompleted))
	rc.set("dist.requeued", float64(st.ShardsRequeued))
	rc.set("dist.local", float64(st.ShardsLocal))
	if st.ShardsCompleted == 0 {
		rc.problem("sharded iteration completed no shard: the campaigns ran locally")
	}
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// shape is one execution configuration the workloads run.
type shape struct {
	app   string
	procs int
}

// probeShapes are the fault-free executions the trial-level layers are
// measured on: the six paper apps at the prediction's scales, and the
// campaign-p64 apps at p=64.
func probeShapes() []shape {
	var out []shape
	for _, p := range []int{1, predictSmall, predictLarge} {
		for _, a := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
			out = append(out, shape{a, p})
		}
	}
	for _, a := range campaignApps {
		out = append(out, shape{a, campaignProcs})
	}
	return out
}

// probeResult is one shape's fault-free execution profile.
type probeResult struct {
	execMS float64 // median wall time
	ops    uint64  // instrumented floating point operations, all ranks
	msgs   uint64
	floats uint64
}

// probeShape executes s fault-free on a reused arena: one warm-up, then
// reps timed runs.  Operation and message counts are exact and must
// repeat run to run.
func probeShape(ctx context.Context, s shape, reps int) (probeResult, error) {
	a, err := apps.Lookup(s.app)
	if err != nil {
		return probeResult{}, err
	}
	arena := apps.NewArena()
	var pr probeResult
	times := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		start := time.Now()
		res := arena.ExecuteCtx(ctx, a, a.DefaultClass(), s.procs, nil, apps.DefaultTimeout)
		d := time.Since(start)
		if res.Err != nil {
			return probeResult{}, fmt.Errorf("%s p=%d: %w", s.app, s.procs, res.Err)
		}
		var ops uint64
		for _, c := range res.Ctxs {
			n := c.Counts()
			ops += n.Common + n.Unique + c.Divs()
		}
		got := probeResult{ops: ops, msgs: res.Comm.Messages, floats: res.Comm.Floats}
		if i == 0 {
			pr = got
			continue // warm-up
		}
		if got.ops != pr.ops || got.msgs != pr.msgs || got.floats != pr.floats {
			return probeResult{}, fmt.Errorf("%s p=%d: counts changed between fault-free runs", s.app, s.procs)
		}
		times = append(times, float64(d)/1e6)
	}
	pr.execMS = median(times)
	return pr, nil
}

// probeLayers measures the trial-level layers (apps, fpe, simmpi) on
// every probe shape and records their metrics.
func probeLayers(rc *runCtx) error {
	byShape := make(map[shape]probeResult)
	exec := make(map[int]float64)
	ops := make(map[int]uint64)
	msgs := make(map[int]uint64)
	floats := make(map[int]uint64)
	for _, s := range probeShapes() {
		pr, err := probeShape(rc.ctx, s, probeReps)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		byShape[s] = pr
		exec[s.procs] += pr.execMS
		ops[s.procs] += pr.ops
		msgs[s.procs] += pr.msgs
		floats[s.procs] += pr.floats
	}
	for _, p := range []int{1, 4, 16, 64} {
		rc.set(fmt.Sprintf("apps.exec_ms.p%d", p), exec[p])
		rc.set(fmt.Sprintf("fpe.ops.p%d", p), float64(ops[p]))
	}
	for _, p := range []int{16, 64} {
		rc.set(fmt.Sprintf("simmpi.msgs.p%d", p), float64(msgs[p]))
		rc.set(fmt.Sprintf("simmpi.mb.p%d", p), float64(floats[p])*8/1e6)
	}
	rc.set("fpe.ns_per_op.p1", exec[1]*1e6/float64(ops[1]))
	// Communication time at p=64 is computed, not measured: each app's
	// p=64 wall time less its operations at that app's serial ns/op.
	var comm float64
	for _, a := range campaignApps {
		serial := byShape[shape{a, 1}]
		wide := byShape[shape{a, campaignProcs}]
		comm += wide.execMS - float64(wide.ops)*serial.execMS/float64(serial.ops)
	}
	rc.set("simmpi.comm_ms.p64", comm)
	rc.info("probe: apps.exec_ms is the sum over apps of the median of %d fault-free runs; simmpi.comm_ms.p64 is computed", probeReps)
	return nil
}

// probeReps is how many timed fault-free runs each probe shape gets.
const probeReps = 5
