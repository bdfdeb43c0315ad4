package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"resmod/internal/apps"
	"resmod/internal/core"
	"resmod/internal/exper"
	"resmod/internal/faultsim"
	"resmod/internal/stats"
	"resmod/internal/telemetry"
)

// The predict-paper workload predicts the paper's six applications at p=16
// from S=4 with 40 trials per deployment: the prediction users run.
const (
	predictSmall  = 4
	predictLarge  = 16
	predictTrials = 40
)

// predictSpec is one PredictAll call's inputs.
type predictSpec struct {
	apps         []string
	small, large int
	trials       int
	seed         uint64
	workers      int // trial workers and campaign slots
}

// paperSpec is predict-paper's input for a benchmark seed.
func paperSpec(seed uint64, workers int) predictSpec {
	return predictSpec{
		apps:  exper.PaperBenchmarks,
		small: predictSmall, large: predictLarge, trials: predictTrials,
		seed:    deriveSeed(seed, "predict"),
		workers: workers,
	}
}

// distributeFunc is the signature of exper.Config.Distribute.
type distributeFunc = func(ctx context.Context, c faultsim.Campaign, golden *faultsim.Golden) (*faultsim.Summary, bool, error)

// predictHooks are the session hooks one PredictAll runs with.
type predictHooks struct {
	distribute distributeFunc
	cache      exper.SummaryCache
}

// predictResult is one PredictAll call's outcome.
type predictResult struct {
	wall     time.Duration
	rows     []exper.PredictionRow
	recs     map[string]*faultsim.SummaryRecord
	trials   uint64
	digest   string
	problems []string
}

// predictOnce runs PredictAll on a fresh session and checks every
// campaign it executed: all trials done, none abnormal, rates summing
// to one.
func predictOnce(ctx context.Context, sp predictSpec, h predictHooks) (*predictResult, error) {
	res := &predictResult{recs: make(map[string]*faultsim.SummaryRecord)}
	var mu sync.Mutex
	s := exper.NewSession(exper.Config{
		Trials: sp.trials, Seed: sp.seed,
		Workers: sp.workers, CampaignParallel: sp.workers,
		Ctx:        ctx,
		Cache:      h.cache,
		Distribute: h.distribute,
		OnCampaign: func(id string, sum *faultsim.Summary) {
			msg := checkSummary(id, sum, sp.trials)
			rec := sum.Record(id)
			mu.Lock()
			defer mu.Unlock()
			if msg != "" {
				res.problems = append(res.problems, msg)
			}
			if rec != nil {
				res.recs[id] = rec
			}
			res.trials += sum.TrialsDone
		},
	})
	start := time.Now()
	rows, err := exper.PredictAll(s, sp.apps, sp.small, sp.large)
	res.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.rows = rows
	res.digest = resultDigest(rows, res.recs)
	return res, nil
}

// checkSummary returns what is wrong with a campaign's summary, or "".
func checkSummary(id string, sum *faultsim.Summary, trials int) string {
	switch {
	case sum == nil:
		return fmt.Sprintf("campaign %s: no summary", id)
	case sum.Interrupted:
		return fmt.Sprintf("campaign %s: interrupted", id)
	case sum.TrialsDone != uint64(trials):
		return fmt.Sprintf("campaign %s: %d of %d trials done", id, sum.TrialsDone, trials)
	case sum.Abnormal != 0:
		return fmt.Sprintf("campaign %s: %d abnormal trials", id, sum.Abnormal)
	}
	r := sum.Rates
	if math.Abs(r.Success+r.SDC+r.Failure-1) > 1e-9 {
		return fmt.Sprintf("campaign %s: rates sum to %v", id, r.Success+r.SDC+r.Failure)
	}
	return ""
}

// predAbsErr is the mean |measured - predicted| success rate over rows.
func predAbsErr(rows []exper.PredictionRow) float64 {
	var sum float64
	for _, r := range rows {
		sum += math.Abs(r.Measured.Success - r.Predicted.Success)
	}
	return ratio(sum, float64(len(rows)))
}

// runPredict drives predict-paper: PredictAll executed in this process.
// Its traced run also shards one iteration over in-process dist workers.
func runPredict(rc *runCtx) error {
	ref, haveRef := predictReference(rc.seed)
	sp := paperSpec(rc.seed, rc.nproc)
	err := rc.setup(5, func() (func(), error) {
		return func() {}, warmShapes(rc.ctx, sp)
	})
	if err != nil {
		return err
	}

	// check compares an iteration's digest with the first one and with
	// the kept reference, and counts the iteration as one operation.
	var first string
	check := func(res *predictResult, what string) {
		ok := len(res.problems) == 0
		for _, p := range res.problems {
			rc.problem("%s: %s", what, p)
		}
		if first == "" {
			first = res.digest
		} else if res.digest != first {
			rc.problem("%s: digest %s differs from the run's first %s", what, res.digest, first)
			ok = false
		}
		if haveRef && res.digest != ref {
			rc.problem("%s: digest %s differs from the reference %s for seed %d", what, res.digest, ref, rc.seed)
			ok = false
		}
		rc.op(ok)
	}

	if rc.trace {
		return tracePredict(rc, sp, check)
	}

	var walls []float64
	var last *predictResult
	// Iterate while another iteration as long as the last still fits in
	// the window, so a run's length stays close to --seconds.
	for begin := time.Now(); ; {
		cpu0 := cpuTime()
		res, err := predictOnce(rc.ctx, sp, predictHooks{})
		if err != nil {
			return err
		}
		rc.info("iteration %d: wall %.3f s, cpu %.3f s", len(walls)+1, res.wall.Seconds(), (cpuTime() - cpu0).Seconds())
		check(res, fmt.Sprintf("iteration %d", len(walls)+1))
		walls = append(walls, res.wall.Seconds())
		last = res
		if time.Since(begin)+res.wall > rc.window {
			break
		}
	}
	if !haveRef {
		rc.info("reference: none kept for seed %d; iterations compared with each other", rc.seed)
	}
	rc.info("result_digest: %s (reference %s)", first, refString(ref, haveRef))
	rc.info("pred_abs_err: %.6f over %d rows", predAbsErr(last.rows), len(last.rows))
	rc.timingLine("predict_s", walls, "s")
	rc.set("predict_s", median(walls))
	// Every iteration executes the same trials, so the median iteration
	// gives both metrics.
	rc.set("trials_per_s", float64(last.trials)/median(walls))
	return nil
}

func refString(ref string, ok bool) string {
	if !ok {
		return "none"
	}
	return ref
}

// warmShapes executes every app once, fault-free, at every scale the
// prediction uses: the lazy set-up (code, heap growth) a process pays
// before its first prediction.
func warmShapes(ctx context.Context, sp predictSpec) error {
	for _, name := range sp.apps {
		a, err := apps.Lookup(name)
		if err != nil {
			return err
		}
		for _, p := range []int{1, sp.small, sp.large} {
			if res := apps.ExecuteCtx(ctx, a, a.DefaultClass(), p, nil, apps.DefaultTimeout); res.Err != nil {
				return fmt.Errorf("warm-up %s p=%d: %w", name, p, res.Err)
			}
		}
	}
	return nil
}

// predictRanks orders a traced prediction's span layers, outermost
// first.  The iteration itself is the window they are attributed within;
// time no ranked span covers is unattributed.
var predictRanks = map[string]int{
	"exper.slot_wait":   1,
	"dist.distribute":   2,
	"faultsim.campaign": 3,
	"dist.shard":        4,
	"faultsim.trial":    5,
}

// predictTrace instruments one PredictAll from outside: the session's
// Cache hook marks each campaign's cache-miss probe, its Distribute hook
// marks execution start and end, and trials report through a Sink.
type predictTrace struct {
	tr     *tracer
	trace  int64
	root   int64
	large  int
	trials *trialStats

	mu       sync.Mutex
	probed   map[string]time.Time
	slotWait []float64
	stage    map[string]time.Duration
	campSum  time.Duration
	dist     time.Duration
	inputs   map[string]*modelInputs
}

// modelInputs collects one app's deployment results so the benchmark
// can time core.Predict on exactly the inputs the session used.
type modelInputs struct {
	serial map[int]stats.Rates
	small  *faultsim.Summary
	unique *faultsim.Summary
	prob2  float64
}

func newPredictTrace(tr *tracer, sp predictSpec, trials *trialStats) *predictTrace {
	return &predictTrace{
		tr: tr, trace: tr.newID(), large: sp.large, trials: trials,
		probed: make(map[string]time.Time),
		stage:  make(map[string]time.Duration),
		inputs: make(map[string]*modelInputs),
	}
}

// GetSummary implements exper.SummaryCache: it never hits, and marks
// the time the campaign left the cache probe for the slot queue.
func (pt *predictTrace) GetSummary(id string) (*faultsim.Summary, bool) {
	pt.mu.Lock()
	pt.probed[id] = time.Now()
	pt.mu.Unlock()
	return nil, false
}

// PutSummary implements exper.SummaryCache.
func (pt *predictTrace) PutSummary(string, *faultsim.Summary) {}

func (pt *predictTrace) stageOf(c faultsim.Campaign) string {
	switch {
	case c.Procs == 1:
		return "serial"
	case c.Region == faultsim.UniqueOnly:
		return "unique"
	case c.Procs == pt.large:
		return "large"
	default:
		return "small"
	}
}

// wrap returns a Distribute hook that records the slot wait and the
// campaign's execution span around run.
func (pt *predictTrace) wrap(layer string, run distributeFunc) distributeFunc {
	return func(ctx context.Context, c faultsim.Campaign, g *faultsim.Golden) (*faultsim.Summary, bool, error) {
		id := c.Identity()
		start := time.Now()
		pt.mu.Lock()
		probed, ok := pt.probed[id]
		pt.mu.Unlock()
		if ok {
			pt.tr.add(pt.trace, pt.root, "exper.slot_wait", id, probed, start)
		}
		spanID := pt.tr.newID()
		sum, handled, err := run(context.WithValue(ctx, spanKey{}, spanID), c, g)
		end := time.Now()
		pt.tr.addWithID(spanID, pt.trace, pt.root, layer, id, start, end)
		stage := pt.stageOf(c)
		pt.mu.Lock()
		defer pt.mu.Unlock()
		if ok {
			pt.slotWait = append(pt.slotWait, start.Sub(probed).Seconds())
		}
		pt.stage[stage] += end.Sub(start)
		pt.campSum += end.Sub(start)
		if layer == "dist.distribute" {
			pt.dist += end.Sub(start)
		}
		if err == nil && sum != nil {
			pt.collect(c, g, stage, sum)
		}
		return sum, handled, err
	}
}

func (pt *predictTrace) collect(c faultsim.Campaign, g *faultsim.Golden, stage string, sum *faultsim.Summary) {
	mi := pt.inputs[c.App.Name()]
	if mi == nil {
		mi = &modelInputs{serial: make(map[int]stats.Rates)}
		pt.inputs[c.App.Name()] = mi
	}
	switch stage {
	case "serial":
		mi.serial[c.Errors] = sum.Rates
	case "small":
		mi.small = sum
	case "unique":
		mi.unique = sum
	case "large":
		mi.prob2 = g.UniqueFraction()
	}
}

type spanKey struct{}

// runLocal executes a campaign in this process, reporting its trials
// to the trace: the same call the session makes when no hook handles it.
func (pt *predictTrace) runLocal(ctx context.Context, c faultsim.Campaign, g *faultsim.Golden) (*faultsim.Summary, bool, error) {
	parent, _ := ctx.Value(spanKey{}).(int64)
	sink := pt.trials.sink(pt.tr, pt.trace, parent, c.Procs)
	sum, err := faultsim.RunAgainstCtx(telemetry.With(ctx, telemetry.New(nil, nil, sink)), c, g)
	if err != nil {
		return nil, true, err
	}
	if sum.Interrupted {
		return nil, true, fmt.Errorf("campaign %s interrupted", c.Identity())
	}
	return sum, true, nil
}

// predictCore times core.Predict on each app's collected inputs and
// checks it reproduces the row the session computed.  It returns the
// mean over apps of the median call time.
func (pt *predictTrace) predictCore(rc *runCtx, rows []exper.PredictionRow) (time.Duration, error) {
	var total time.Duration
	for _, row := range rows {
		mi := pt.inputs[row.Bench]
		if mi == nil || mi.small == nil {
			return 0, fmt.Errorf("core: no inputs collected for %s", row.Bench)
		}
		xs, err := core.SampleXs(row.Large, row.Small)
		if err != nil {
			return 0, err
		}
		rates := make([]stats.Rates, len(xs))
		for i, x := range xs {
			rates[i] = mi.serial[x]
		}
		curve, err := core.NewSerialCurve(row.Large, xs, rates)
		if err != nil {
			return 0, err
		}
		cond := make(map[int]stats.Rates)
		for x := 1; x <= row.Small; x++ {
			if r, ok := mi.small.ConditionalRates(x); ok {
				cond[x] = r
			}
		}
		in := core.Inputs{
			P: row.Large, Serial: curve,
			SmallProfile: mi.small.Hist.Probabilities(), SmallConditional: cond,
			Prob2: mi.prob2,
		}
		if mi.prob2 > 0 && mi.unique != nil {
			in.Unique = mi.unique.Rates
		}
		const reps = 200
		times := make([]float64, reps)
		var pred *core.Prediction
		for i := range times {
			t0 := time.Now()
			pred, err = core.Predict(in)
			times[i] = float64(time.Since(t0))
			if err != nil {
				return 0, err
			}
		}
		if pred.Rates != row.Predicted {
			rc.problem("core.Predict on the collected inputs of %s gives %+v, the session gave %+v",
				row.Bench, pred.Rates, row.Predicted)
		}
		total += time.Duration(median(times))
	}
	return total / time.Duration(len(rows)), nil
}

// tracePredict is the traced run of predict-paper: one untraced
// iteration, one traced iteration with the same inputs, the single-core
// baseline, one iteration sharded over two in-process dist workers, and
// the trial-level probes.
func tracePredict(rc *runCtx, sp predictSpec, check func(*predictResult, string)) error {
	untraced, err := predictOnce(rc.ctx, sp, predictHooks{})
	if err != nil {
		return err
	}
	check(untraced, "untraced iteration")

	trials := newTrialStats()
	pt := newPredictTrace(rc.spans, sp, trials)
	pt.root = rc.spans.newID()
	cpu0 := cpuTime()
	res, err := predictOnce(rc.ctx, sp, predictHooks{cache: pt, distribute: pt.wrap("faultsim.campaign", pt.runLocal)})
	if err != nil {
		return err
	}
	cpu := cpuTime() - cpu0
	end := time.Now()
	start := end.Add(-res.wall)
	rc.spans.addWithID(pt.root, pt.trace, 0, "bench.iteration", "PredictAll", start, end)
	check(res, "traced iteration")
	if res.digest != untraced.digest {
		rc.problem("traced digest %s differs from untraced %s", res.digest, untraced.digest)
	}

	self, unattributed := selfTimes(rc.spans.ofTrace(pt.trace), predictRanks, start, end)
	reportSelf(rc, self, unattributed, res.wall)
	for _, st := range []string{"serial", "small", "unique", "large"} {
		rc.set("exper.stage_s."+st, pt.stage[st].Seconds())
	}
	rc.set("exper.slot_wait_s", mean(pt.slotWait))
	rc.info("exper.slot_wait_s: mean over %d campaigns", len(pt.slotWait))
	rc.set("exper.overlap", pt.campSum.Seconds()/res.wall.Seconds())
	rc.set("exper.cpu_util", cpu.Seconds()/(res.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	rc.set("bench.trace_overhead_frac", (res.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds())
	rc.set("pred_abs_err", predAbsErr(res.rows))
	coreT, err := pt.predictCore(rc, res.rows)
	if err != nil {
		return err
	}
	rc.set("core.predict_us", float64(coreT)/1e3)

	// The single-thread baseline: the same prediction on one core, one
	// trial worker and one campaign slot.
	base, err := baselinePredict(rc, sp)
	if err != nil {
		return err
	}
	check(base, "single-core baseline")
	rc.set("exper.scaling_eff", base.wall.Seconds()/(res.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	rc.info("exper.scaling_eff: baseline %.3f s on 1 core vs %.3f s on %d", base.wall.Seconds(), res.wall.Seconds(), runtime.GOMAXPROCS(0))

	if err := traceSharded(rc, sp, trials, check); err != nil {
		return err
	}
	trials.report(rc)
	return probeLayers(rc)
}

// traceSharded runs the same prediction with every campaign sharded over
// two in-process dist workers on loopback HTTP, and records the dist
// layer's metrics.  Its digest must equal the local one.  Trials on the
// workers report into trials with an unknown rank count, so they add to
// the abnormal and retried counts but not to faultsim.trial_ms.
func traceSharded(rc *runCtx, sp predictSpec, trials *trialStats, check func(*predictResult, string)) error {
	pt := newPredictTrace(rc.spans, sp, trials)
	// Two worker nodes share the host: each runs half its cores' worth of
	// trials, so the fleet runs nproc trials at once like a local run.
	fl, err := startFleet(rc.ctx, 2, max(1, rc.nproc/2), rc.spans, pt.trace, trials)
	if err != nil {
		return err
	}
	// Stopped before the probes, so idle workers' heartbeats do not
	// share the cores with them.
	defer fl.stop()
	pt.root = rc.spans.newID()
	res, err := predictOnce(rc.ctx, sp, predictHooks{cache: pt, distribute: pt.wrap("dist.distribute", fl.pool.Distribute)})
	if err != nil {
		return err
	}
	end := time.Now()
	start := end.Add(-res.wall)
	rc.spans.addWithID(pt.root, pt.trace, 0, "bench.iteration", "PredictAll sharded", start, end)
	check(res, "sharded iteration")
	self, unattributed := selfTimes(rc.spans.ofTrace(pt.trace), predictRanks, start, end)
	printSelf(rc, "sharded self_s", self, unattributed, res.wall)
	reportDist(rc, fl, pt.dist)
	return nil
}

// baselinePredict runs the traced prediction at GOMAXPROCS 1.
func baselinePredict(rc *runCtx, sp predictSpec) (*predictResult, error) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	one := sp
	one.workers = 1
	pt := newPredictTrace(rc.spans, one, newTrialStats())
	pt.root = rc.spans.newID()
	res, err := predictOnce(rc.ctx, one, predictHooks{cache: pt, distribute: pt.wrap("faultsim.campaign", pt.runLocal)})
	if err != nil {
		return nil, err
	}
	end := time.Now()
	rc.spans.addWithID(pt.root, pt.trace, 0, "bench.iteration", "PredictAll single-core", end.Add(-res.wall), end)
	return res, nil
}

// reportSelf prints each layer's self time and records the share of
// the traced wall no layer accounts for.
func reportSelf(rc *runCtx, self map[string]time.Duration, unattributed, wall time.Duration) {
	printSelf(rc, "self_s", self, unattributed, wall)
	rc.set("bench.unattributed_frac", unattributed.Seconds()/wall.Seconds())
}

// printSelf prints each layer's self time and their reconciliation with
// the traced wall time.
func printSelf(rc *runCtx, label string, self map[string]time.Duration, unattributed, wall time.Duration) {
	var sum time.Duration
	for layer, d := range self {
		sum += d
		rc.info("%s %-20s %.3f", label, layer, d.Seconds())
	}
	rc.info("%s %-20s %.3f (wall %.3f; self times + unattributed = %.3f)", label, "(unattributed)",
		unattributed.Seconds(), wall.Seconds(), (sum + unattributed).Seconds())
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
