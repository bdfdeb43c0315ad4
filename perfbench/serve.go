package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"resmod/internal/exper"
	"resmod/internal/server"
	"resmod/internal/store"
)

// serve-mixed is an open loop against an in-process prediction server
// over a temp-dir store: warm reads at a fixed rate below the knee, a
// /metrics scrape every second, and cold predictions on a fixed
// schedule competing with them.
const (
	// serveTrials is the server's trials per deployment, twice
	// predict-paper's 40, so the six cold jobs hold enough compute
	// (about 15 s) for their summed time to be steady run to run.
	serveTrials = 80
	warmRate    = 200 // warm requests per second
	warmLimit   = 50 * time.Millisecond
	coldPoll    = 25 * time.Millisecond
	// Warm predictions are (app, S=2, p=4); cold ones (app, S=4, p=16),
	// one per paper app, so no cold prediction is already in the store
	// (only the single-error serial deployment is shared).
	warmSmall = 2
	warmLarge = 4
	coldSmall = predictSmall
	coldLarge = predictLarge
)

var coldApps = []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"}

// warmApps are fixed, not drawn from the seed, so every set-up computes
// the same warm predictions.
var warmApps = []string{"CG", "MG", "PENNANT"}

// serveEnv is one server under test with its warm jobs computed.
type serveEnv struct {
	srv     *server.Server
	st      *store.Store
	hs      *http.Server
	base    string
	client  *http.Client
	routes  *routeTimer
	warm    []warmJob
	release func()
}

type warmJob struct {
	id   string
	body []byte
}

// jobView is the part of the server's prediction JSON the checks read.
type jobView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached"`
	Result      json.RawMessage `json:"result"`
	SubmittedAt time.Time       `json:"submitted_at"`
	ElapsedMS   int64           `json:"elapsed_ms"`
	Error       string          `json:"error"`
}

func serverConfig(seed uint64, nproc int, st *store.Store) server.Config {
	return server.Config{
		Trials: serveTrials, Seed: seed,
		CampaignWorkers: nproc, CampaignParallel: nproc,
		SampleEvery: time.Second,
		Store:       st,
	}
}

func predictionBody(app string, small, large int) []byte {
	b, _ := json.Marshal(server.PredictionRequest{App: app, Small: small, Large: large})
	return b
}

// startServe builds the environment: a first server computes the warm
// predictions into a fresh store directory and shuts down; the server
// under test then opens the same directory, so re-POSTs of warm bodies
// are answered from the store.
func startServe(ctx context.Context, seed uint64, nproc int) (*serveEnv, error) {
	tmp := filepath.Join(buildDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{}
	ok := false
	defer func() {
		if !ok {
			env.stop()
			os.RemoveAll(dir)
		}
	}()

	bodies := make([][]byte, len(warmApps))
	for i, app := range warmApps {
		bodies[i] = predictionBody(app, warmSmall, warmLarge)
	}
	if err := computeWarm(ctx, seed, nproc, dir, bodies); err != nil {
		return nil, err
	}

	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	env.st = st
	env.srv = server.New(serverConfig(seed, nproc, st))
	env.routes = newRouteTimer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.routes.wrap(env.srv.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = env.hs.Serve(ln)
	}()
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	env.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	env.release = func() {
		_ = env.hs.Close()
		<-served
		tr.CloseIdleConnections()
		cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = env.srv.Close(cctx)
		os.RemoveAll(dir)
	}
	for _, b := range bodies {
		code, v, err := env.postJSON(ctx, b)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK || v.Status != server.StatusDone || !v.Cached {
			return nil, fmt.Errorf("warm body %s: HTTP %d status %q cached=%v, want a store-served answer", b, code, v.Status, v.Cached)
		}
		env.warm = append(env.warm, warmJob{id: v.ID, body: b})
	}
	ok = true
	return env, nil
}

func (env *serveEnv) stop() {
	if env.release != nil {
		env.release()
		env.release = nil
	}
}

// computeWarm runs the warm predictions on a throwaway server over dir.
func computeWarm(ctx context.Context, seed uint64, nproc int, dir string, bodies [][]byte) error {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv := server.New(serverConfig(seed, nproc, st))
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(cctx)
	}()
	h := srv.Handler()
	do := func(method, path string, body []byte) (int, jobView, error) {
		rec := httptest.NewRecorder()
		req, err := http.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
		if err != nil {
			return 0, jobView{}, err
		}
		h.ServeHTTP(rec, req)
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return rec.Code, v, fmt.Errorf("%s %s: %w", method, path, err)
		}
		return rec.Code, v, nil
	}
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		code, v, err := do(http.MethodPost, "/v1/predictions", b)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("warm submit %s: HTTP %d", b, code)
		}
		ids[i] = v.ID
	}
	for _, id := range ids {
		for {
			_, v, err := do(http.MethodGet, "/v1/predictions/"+id, nil)
			if err != nil {
				return err
			}
			if v.Status == server.StatusDone {
				break
			}
			if v.Status != server.StatusQueued && v.Status != server.StatusRunning {
				return fmt.Errorf("warm job %s ended %s: %s", id, v.Status, v.Error)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

func (env *serveEnv) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, env.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (env *serveEnv) postJSON(ctx context.Context, body []byte) (int, jobView, error) {
	code, b, err := env.do(ctx, http.MethodPost, "/v1/predictions", body)
	var v jobView
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	return code, v, err
}

// routeTimer times the server's handlers from outside, by route.
type routeTimer struct {
	mu    sync.Mutex
	times map[string][]float64 // ms
	on    bool
	tr    *tracer
	trace int64
}

func newRouteTimer() *routeTimer { return &routeTimer{times: make(map[string][]float64)} }

func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/predictions":
		return "submit"
	case r.URL.Path == "/metrics":
		return "metrics"
	case r.URL.Path == "/v1/status":
		return "status"
	default:
		return "get"
	}
}

func (rt *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		route := routeOf(r)
		rt.mu.Lock()
		on, tr, trace := rt.on, rt.tr, rt.trace
		if on {
			rt.times[route] = append(rt.times[route], float64(end.Sub(start))/1e6)
		}
		rt.mu.Unlock()
		if on {
			tr.add(trace, 0, "server.handler", route, start, end)
		}
	})
}

func (rt *routeTimer) enable(tr *tracer, trace int64) {
	rt.mu.Lock()
	rt.on, rt.tr, rt.trace = true, tr, trace
	rt.mu.Unlock()
}

func (rt *routeTimer) get(route string) []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.times[route]...)
}

// warmKind is one kind of warm request.
type warmKind int

const (
	warmGet warmKind = iota
	warmRepost
	warmStatus
)

// warmReq is one scheduled warm request.
type warmReq struct {
	kind warmKind
	job  int
}

// warmSchedule draws n warm requests: half GETs of finished jobs, 30%
// re-POSTs of warm bodies, 20% /v1/status.
func warmSchedule(rng *rand.Rand, n, jobs int) []warmReq {
	out := make([]warmReq, n)
	for i := range out {
		u := rng.Float64()
		k := warmGet
		switch {
		case u >= 0.8:
			k = warmStatus
		case u >= 0.5:
			k = warmRepost
		}
		out[i] = warmReq{kind: k, job: rng.Intn(jobs)}
	}
	return out
}

// sample is one open-loop request's timing.
type sample struct {
	due, sent, done time.Time
	ok              bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) lag() time.Duration     { return s.sent.Sub(s.due) }

// clock lets the open loop run on a fake clock in tests.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// openLoop sends request k at start + k*interval, for k < n, over conns
// senders (sender i sends k = i, i+conns, ...).  A request is timed from
// when it was due, so a stalled response delays and inflates every later
// request on its sender.  do reports whether the response was correct.
func openLoop(ctx context.Context, clk clock, start time.Time, interval time.Duration, n, conns int, do func(k int) bool) []sample {
	out := make([]sample, n)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; k < n; k += conns {
				due := start.Add(time.Duration(k) * interval)
				clk.SleepUntil(ctx, due)
				if ctx.Err() != nil {
					return
				}
				s := sample{due: due, sent: clk.Now()}
				s.ok = do(k)
				s.done = clk.Now()
				out[k] = s
			}
		}(i)
	}
	wg.Wait()
	return out
}

// coldJob is one cold prediction's outcome.
type coldJob struct {
	app       string
	due, done time.Time
	submitted time.Time
	elapsed   time.Duration
	ok        bool
	queueWait time.Duration
	absErr    float64 // |measured - predicted| success rate of its row
}

// serveWindow is one measured window's results.
type serveWindow struct {
	warm    []sample
	scrapes []sample
	cold    []coldJob
	trials  float64 // campaign trials the cold jobs executed
	storeD  store.Stats
	shed    int
	extra   int // poll requests
	extraOK int
}

// runWindow drives one measurement window against env.
func runWindow(ctx context.Context, env *serveEnv, rng *rand.Rand, window time.Duration, conns int, tr *tracer, trace int64) (*serveWindow, error) {
	w := &serveWindow{}
	n := int(window.Seconds() * warmRate)
	sched := warmSchedule(rng, n, len(env.warm))
	order := rng.Perm(len(coldApps))
	trials0, err := env.scrapeTrials(ctx)
	if err != nil {
		return nil, err
	}
	st0 := env.st.Stats()
	var mu sync.Mutex
	countShed := func(code int) {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			mu.Lock()
			w.shed++
			mu.Unlock()
		}
	}
	clk := realClock{}
	start := time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup

	// Cold predictions: one per paper app, evenly spread over the
	// window, far enough apart that one finishes before the next is due.
	coldEvery := window / time.Duration(len(coldApps))
	w.cold = make([]coldJob, len(coldApps))
	for i, idx := range order {
		wg.Add(1)
		go func(i int, app string) {
			defer wg.Done()
			cj := coldJob{app: app, due: start.Add(coldEvery * time.Duration(i))}
			clk.SleepUntil(ctx, cj.due)
			cj.ok, cj.done, cj.submitted, cj.elapsed, cj.absErr = env.cold(ctx, app, countShed, func(ok bool) {
				mu.Lock()
				w.extra++
				if ok {
					w.extraOK++
				}
				mu.Unlock()
			})
			cj.queueWait = cj.done.Sub(cj.submitted) - cj.elapsed
			if tr != nil {
				tr.add(trace, 0, "server.job", app, cj.due, cj.done)
			}
			w.cold[i] = cj
		}(i, coldApps[idx])
	}

	// /metrics scrapes, one a second.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.scrapes = openLoop(ctx, clk, start, time.Second, int(window.Seconds()), 1, func(int) bool {
			code, _, err := env.do(ctx, http.MethodGet, "/metrics", nil)
			countShed(code)
			return err == nil && code == http.StatusOK
		})
	}()

	// Warm traffic.
	w.warm = openLoop(ctx, clk, start, time.Second/warmRate, n, conns, func(k int) bool {
		r := sched[k]
		job := env.warm[r.job]
		t0 := time.Now()
		var ok bool
		switch r.kind {
		case warmGet:
			code, b, err := env.do(ctx, http.MethodGet, "/v1/predictions/"+job.id, nil)
			countShed(code)
			var v jobView
			ok = err == nil && code == http.StatusOK && json.Unmarshal(b, &v) == nil &&
				v.ID == job.id && v.Status == server.StatusDone && len(v.Result) > 0
		case warmRepost:
			code, v, err := env.postJSON(ctx, job.body)
			countShed(code)
			ok = err == nil && code == http.StatusOK && v.ID == job.id && v.Status == server.StatusDone && v.Cached
		case warmStatus:
			code, b, err := env.do(ctx, http.MethodGet, "/v1/status", nil)
			countShed(code)
			var v struct {
				Status string `json:"status"`
			}
			ok = err == nil && code == http.StatusOK && json.Unmarshal(b, &v) == nil && v.Status == "ok"
		}
		tr.add(trace, 0, "bench.request", "warm", t0, time.Now())
		return ok
	})
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	trials1, err := env.scrapeTrials(ctx)
	if err != nil {
		return nil, err
	}
	w.trials = trials1 - trials0
	st1 := env.st.Stats()
	w.storeD = store.Stats{Hits: st1.Hits - st0.Hits, Misses: st1.Misses - st0.Misses, Puts: st1.Puts - st0.Puts}
	return w, nil
}

// cold submits one cold prediction and polls it to a terminal status.
// It returns whether it ended done, when that was seen, the server's
// submission time and compute time, and the row's prediction error.
func (env *serveEnv) cold(ctx context.Context, app string, countShed func(int), poll func(bool)) (bool, time.Time, time.Time, time.Duration, float64) {
	code, v, err := env.postJSON(ctx, predictionBody(app, coldSmall, coldLarge))
	countShed(code)
	if err != nil || code != http.StatusAccepted {
		return false, time.Now(), time.Now(), 0, 0
	}
	for {
		select {
		case <-ctx.Done():
			return false, time.Now(), v.SubmittedAt, 0, 0
		case <-time.After(coldPoll):
		}
		code, b, err := env.do(ctx, http.MethodGet, "/v1/predictions/"+v.ID, nil)
		countShed(code)
		var cur jobView
		ok := err == nil && code == http.StatusOK && json.Unmarshal(b, &cur) == nil
		poll(ok)
		if !ok {
			continue
		}
		switch cur.Status {
		case server.StatusQueued, server.StatusRunning:
			continue
		case server.StatusDone:
			var row exper.PredictionRow
			ok := !cur.Cached && json.Unmarshal(cur.Result, &row) == nil && row.Bench == app
			return ok, time.Now(), cur.SubmittedAt, time.Duration(cur.ElapsedMS) * time.Millisecond,
				math.Abs(row.Measured.Success - row.Predicted.Success)
		default:
			return false, time.Now(), cur.SubmittedAt, time.Duration(cur.ElapsedMS) * time.Millisecond, 0
		}
	}
}

// scrapeTrials reads resmod_campaign_trials_total from /metrics.
func (env *serveEnv) scrapeTrials(ctx context.Context) (float64, error) {
	code, b, err := env.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/metrics: HTTP %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "resmod_campaign_trials_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no resmod_campaign_trials_total")
}

func runServe(rc *runCtx) error {
	// The server's statistical protocol (trials, campaign seed) is
	// configuration, fixed across runs like a deployment's; the seed
	// drives the traffic: the cold order and the warm request mix.
	const seed = 0x5e7e11ed
	rng := rand.New(rand.NewSource(int64(deriveSeed(rc.seed, "serve-traffic"))))
	conns := rc.nproc
	var env *serveEnv
	err := rc.setup(3, func() (func(), error) {
		e, err := startServe(rc.ctx, seed, rc.nproc)
		if err != nil {
			return nil, err
		}
		env = e
		return e.stop, nil
	})
	if err != nil {
		return err
	}

	if !rc.trace {
		w, err := runWindow(rc.ctx, env, rng, rc.window, conns, nil, 0)
		if err != nil {
			return err
		}
		// The six cold jobs are one prediction per paper app: their summed
		// submit-to-done time is what predicting the paper's apps through
		// the service cost, under the warm traffic.
		var total float64
		for _, c := range w.account(rc) {
			total += c
		}
		rc.set("predict_s", total)
		rc.set("trials_per_s", w.trials/total)
		rc.info("predict_s: sum of %d cold predictions; trials_per_s: %.0f cold-job trials over that time", len(w.cold), w.trials)
		return nil
	}

	// Traced: an untraced window, then a traced one on a fresh server
	// with the same inputs.
	untraced, err := runWindow(rc.ctx, env, rng, rc.window, conns, nil, 0)
	if err != nil {
		return err
	}
	untraced.account(rc)
	env.stop()
	env, err = startServe(rc.ctx, seed, rc.nproc)
	if err != nil {
		return err
	}
	rc.onExit(env.stop)
	trace := rc.spans.newID()
	env.routes.enable(rc.spans, trace)
	rng = rand.New(rand.NewSource(int64(deriveSeed(rc.seed, "serve-traffic"))))
	cpu0 := cpuTime()
	t0 := time.Now()
	w, err := runWindow(rc.ctx, env, rng, rc.window, conns, rc.spans, trace)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	cold := w.account(rc)
	rc.set("cold_p50_s", median(cold))
	rc.set("cold_samples", float64(len(cold)))
	var qw, js []float64
	for _, c := range w.cold {
		qw = append(qw, c.queueWait.Seconds())
		js = append(js, c.elapsed.Seconds())
	}
	rc.set("server.queue_wait_s.p50", median(qw))
	rc.set("server.job_s.p50", median(js))
	sub := env.routes.get("submit")
	rc.set("server.submit_ms.p50", quantile(sub, 0.5))
	rc.set("server.submit_ms.p99", quantile(sub, 0.99))
	rc.timingLine("server.submit_ms", sub, "ms")
	met := env.routes.get("metrics")
	rc.set("server.metrics_ms.p50", quantile(met, 0.5))
	rc.set("server.metrics_ms.p99", quantile(met, 0.99))
	rc.timingLine("server.metrics_ms", met, "ms")
	stt := env.routes.get("status")
	rc.set("server.status_ms.p50", quantile(stt, 0.5))
	rc.timingLine("server.status_ms", stt, "ms")
	rc.set("server.shed", float64(w.shed))
	lookups := float64(w.storeD.Hits + w.storeD.Misses)
	rc.set("store.hit_frac", ratio(float64(w.storeD.Hits), lookups))
	rc.set("store.misses", float64(w.storeD.Misses))
	rc.set("store.puts", float64(w.storeD.Puts))
	rc.set("exper.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(rc.nproc)))
	rc.set("bench.trace_overhead_frac", (sumLatency(w.warm)-sumLatency(untraced.warm))/sumLatency(untraced.warm))
	rc.info("bench.trace_overhead_frac: total warm latency traced vs untraced window")
	self, unattributed := selfTimes(rc.spans.ofTrace(trace),
		map[string]int{"server.job": 1, "bench.request": 2, "server.handler": 3}, w.warm[0].due, w.warm[len(w.warm)-1].done)
	reportSelf(rc, self, unattributed, w.warm[len(w.warm)-1].done.Sub(w.warm[0].due))
	return probeLayers(rc)
}

func sumLatency(ss []sample) float64 {
	var s float64
	for _, x := range ss {
		s += x.latency().Seconds()
	}
	return s
}

// account checks and counts the window's requests and records the warm
// latency metrics.  It returns the cold jobs' submit-to-done seconds.
func (w *serveWindow) account(rc *runCtx) []float64 {
	var lat, lag []float64
	inSLO := 0
	bad := 0
	for _, s := range w.warm {
		rc.op(s.ok)
		lat = append(lat, float64(s.latency())/1e6)
		lag = append(lag, float64(s.lag())/1e6)
		if s.ok && s.latency() <= warmLimit {
			inSLO++
		}
		if !s.ok {
			bad++
		}
	}
	if bad > 0 {
		rc.problem("%d of %d warm requests failed or answered wrongly", bad, len(w.warm))
	}
	for _, s := range w.scrapes {
		rc.op(s.ok)
		if !s.ok {
			rc.problem("a /metrics scrape failed")
		}
	}
	for i := 0; i < w.extra; i++ {
		rc.op(i < w.extraOK)
	}
	var cold, errs []float64
	for _, c := range w.cold {
		rc.op(c.ok)
		if !c.ok {
			rc.problem("cold prediction of %s did not finish done", c.app)
			continue
		}
		cold = append(cold, c.done.Sub(c.due).Seconds())
		errs = append(errs, c.absErr)
		rc.info("cold %-8s submit->done %.3f s (compute %.3f s, queued %.3f s)",
			c.app, c.done.Sub(c.due).Seconds(), c.elapsed.Seconds(), c.queueWait.Seconds())
	}
	rc.set("warm_p50_ms", quantile(lat, 0.5))
	rc.set("warm_p99_ms", quantile(lat, 0.99))
	rc.set("warm_slo_frac", float64(inSLO)/float64(len(w.warm)))
	top := topPercentile(len(lat))
	rc.set("warm_samples", float64(len(lat)))
	rc.set("warm_top_pct", top)
	rc.set("warm_top_ms", quantile(lat, top/100))
	rc.set("bench.gen_lag_ms.p99", quantile(lag, 0.99))
	rc.set("pred_abs_err", mean(errs))
	rc.timingLine("warm_ms (from due time)", lat, "ms")
	rc.timingLine("bench.gen_lag_ms", lag, "ms")
	rc.info("warm_slo_frac: %d of %d warm requests 2xx and correct within %v", inSLO, len(w.warm), warmLimit)
	rc.timingLine("cold_s (submit to done)", cold, "s")
	rc.info("store: hits=%d misses=%d puts=%d; shed=%d", w.storeD.Hits, w.storeD.Misses, w.storeD.Puts, w.shed)
	return cold
}
