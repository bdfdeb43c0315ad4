package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// campaign-p64 runs measured large-scale deployments — the cost the
// model exists to avoid — straight through faultsim, bypassing exper's
// scheduling.  MG is left out because it changes problem size at p=64.
var campaignApps = []string{"CG", "FT", "PENNANT", "MiniFE"}

const (
	campaignProcs  = 64
	campaignTrials = 16
)

// campaignRound is one pass over the campaign apps.
type campaignRound struct {
	wall    time.Duration
	elapsed time.Duration // sum of the campaigns' own wall times
	trials  uint64
	digest  string
}

// roundTrace is where a traced round records its spans.
type roundTrace struct {
	tr          *tracer
	trace, root int64
	trials      *trialStats
}

// runRound runs every campaign app's measured deployment once, in order,
// and checks each summary.  With rt non-nil each campaign is a span and
// its trials report through a telemetry sink.
func runRound(ctx context.Context, goldens map[string]*faultsim.Golden, seed uint64, workers int,
	rt *roundTrace, problem func(string, ...any)) (campaignRound, error) {
	var r campaignRound
	recs := make(map[string]*faultsim.SummaryRecord)
	start := time.Now()
	for _, name := range campaignApps {
		g := goldens[name]
		c := faultsim.Campaign{
			App: g.App, Procs: campaignProcs, Trials: campaignTrials,
			Errors: 1, Region: faultsim.AnyRegion,
			Seed: seed, Workers: workers,
		}.Normalized()
		cctx := ctx
		var spanID int64
		if rt != nil {
			spanID = rt.tr.newID()
			sink := rt.trials.sink(rt.tr, rt.trace, spanID, campaignProcs)
			cctx = telemetry.With(ctx, telemetry.New(nil, nil, sink))
		}
		t0 := time.Now()
		sum, err := faultsim.RunAgainstCtx(cctx, c, g)
		if rt != nil {
			rt.tr.addWithID(spanID, rt.trace, rt.root, "faultsim.campaign", c.Identity(), t0, time.Now())
		}
		if err != nil {
			return r, fmt.Errorf("campaign %s: %w", c.Identity(), err)
		}
		if msg := checkSummary(c.Identity(), sum, campaignTrials); msg != "" {
			problem("%s", msg)
		}
		if rec := sum.Record(c.Identity()); rec != nil {
			recs[c.Identity()] = rec
		}
		r.trials += sum.TrialsDone
		r.elapsed += sum.Elapsed
	}
	r.wall = time.Since(start)
	r.digest = resultDigest(nil, recs)
	return r, nil
}

// computeGoldens runs the fault-free p=64 reference of every campaign
// app and returns them with their wall times in ms.
func computeGoldens(ctx context.Context) (map[string]*faultsim.Golden, []float64, error) {
	goldens := make(map[string]*faultsim.Golden)
	var ms []float64
	for _, name := range campaignApps {
		a, err := apps.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		g, err := faultsim.ComputeGoldenCtx(ctx, a, "", campaignProcs, apps.DefaultTimeout)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		goldens[name] = g
	}
	return goldens, ms, nil
}

func runCampaignP64(rc *runCtx) error {
	// Each round runs under its own seed, so a run's median averages over
	// many fault draws instead of resting on one seed's outcome mix.
	roundSeed := func(r int) uint64 { return deriveSeed(rc.seed, fmt.Sprintf("campaign-p64/%d", r)) }
	var goldens map[string]*faultsim.Golden
	var goldenMS []float64
	err := rc.setup(3, func() (func(), error) {
		g, ms, err := computeGoldens(rc.ctx)
		if err != nil {
			return nil, err
		}
		goldens = g
		goldenMS = append(goldenMS, ms...)
		// Warm-up: one round under a seed no timed round uses, so the
		// timed rounds start with warm code and heap.
		if _, err := runRound(rc.ctx, goldens, deriveSeed(rc.seed, "campaign-p64/warm-up"), rc.nproc, nil, func(string, ...any) {}); err != nil {
			return nil, err
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}

	// round runs one round and counts its campaigns as operations; want,
	// when set, is the digest the round must reproduce.
	round := func(seed uint64, rt *roundTrace, want string) (campaignRound, error) {
		bad := false
		r, err := runRound(rc.ctx, goldens, seed, rc.nproc, rt, func(f string, a ...any) {
			bad = true
			rc.problem(f, a...)
		})
		if err != nil {
			return r, err
		}
		if want != "" && r.digest != want {
			rc.problem("round digest %s differs from %s for the same seed", r.digest, want)
			bad = true
		}
		for range campaignApps {
			rc.op(!bad)
		}
		return r, nil
	}

	if rc.trace {
		untraced, err := round(roundSeed(0), nil, "")
		if err != nil {
			return err
		}
		rt := &roundTrace{tr: rc.spans, trace: rc.spans.newID(), root: rc.spans.newID(), trials: newTrialStats()}
		cpu0 := cpuTime()
		r, err := round(roundSeed(0), rt, untraced.digest)
		if err != nil {
			return err
		}
		cpu := cpuTime() - cpu0
		end := time.Now()
		start := end.Add(-r.wall)
		rc.spans.addWithID(rt.root, rt.trace, 0, "bench.iteration", "round", start, end)
		self, unattributed := selfTimes(rc.spans.ofTrace(rt.trace),
			map[string]int{"faultsim.campaign": 1, "faultsim.trial": 2}, start, end)
		reportSelf(rc, self, unattributed, r.wall)
		rt.trials.report(rc)
		rc.set("faultsim.golden_ms.p64", median(goldenMS))
		rc.set("exper.overlap", r.elapsed.Seconds()/r.wall.Seconds())
		rc.set("exper.cpu_util", cpu.Seconds()/(r.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		rc.set("bench.trace_overhead_frac", (r.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds())
		return probeLayers(rc)
	}

	var walls []float64
	var trials uint64
	var first string
	// Iterate while another iteration as long as the last still fits in
	// the window, so a run's length stays close to --seconds.
	for begin := time.Now(); ; {
		r, err := round(roundSeed(len(walls)), nil, "")
		if err != nil {
			return err
		}
		if first == "" {
			first = r.digest
		}
		walls = append(walls, r.wall.Seconds())
		trials = r.trials
		if time.Since(begin)+r.wall > rc.window {
			break
		}
	}
	// Determinism: the first round again, outside the timing, must
	// reproduce its digest.
	if _, err := round(roundSeed(0), nil, first); err != nil {
		return err
	}
	rc.info("result_digest: %s (round 1, reproduced after the window)", first)
	rc.info("faultsim.golden_ms.p64: %d goldens in set-up, median %.1f ms", len(goldenMS), median(goldenMS))
	rc.timingLine("predict_s (one round of p=64 deployments)", walls, "s")
	rc.set("predict_s", median(walls))
	// Every round executes the same number of trials, so the median
	// round gives both metrics.
	rc.set("trials_per_s", float64(trials)/median(walls))
	return nil
}
