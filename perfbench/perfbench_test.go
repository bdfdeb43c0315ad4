package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median has only 9 samples beyond it
		{20, 50},   // 10 beyond the median
		{99, 50},   // 9 beyond p90
		{100, 90},  // 10 beyond p90
		{999, 90},  // 9 beyond p99
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// fakeClock advances only when told to, so the open loop's timing is
// exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.t) {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// A stalled response must inflate the latency of the requests queued
// behind it: each is timed from when it was due, not from when it was
// finally sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{t: start}
	ms := time.Millisecond
	samples := openLoop(context.Background(), clk, start, 10*ms, 5, 1, func(k int) bool {
		if k == 1 {
			clk.advance(100 * ms) // the stall
		} else {
			clk.advance(1 * ms)
		}
		return true
	})
	wantLat := []time.Duration{1 * ms, 100 * ms, 91 * ms, 82 * ms, 73 * ms}
	wantLag := []time.Duration{0, 0, 90 * ms, 81 * ms, 72 * ms}
	for k, s := range samples {
		if s.latency() != wantLat[k] || s.lag() != wantLag[k] {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", k, s.latency(), s.lag(), wantLat[k], wantLag[k])
		}
		if service := s.done.Sub(s.sent); k > 1 && s.latency() <= service {
			t.Errorf("request %d: latency %v does not include the wait behind the stall (service %v)", k, s.latency(), service)
		}
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Layer: "outer", Start: at(0), End: at(60)},
		{Layer: "inner", Start: at(10), End: at(30)},
		{Layer: "inner", Start: at(20), End: at(40)}, // concurrent with the first
		{Layer: "outer", Start: at(70), End: at(90)},
	}
	self, un := selfTimes(spans, map[string]int{"outer": 1, "inner": 2}, at(0), at(100))
	ms := time.Millisecond
	if self["inner"] != 30*ms || self["outer"] != 50*ms || un != 20*ms {
		t.Fatalf("self %v unattributed %v, want inner 30ms outer 50ms unattributed 20ms", self, un)
	}
}

// The digest must be a function of the inputs alone: the same seed gives
// the same digest however the work was scheduled, and another seed gives
// another digest.
func TestDigestStability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small predictions")
	}
	spec := func(seed uint64, workers int) predictSpec {
		return predictSpec{apps: []string{"PENNANT"}, small: 2, large: 4, trials: 8, seed: seed, workers: workers}
	}
	ctx := context.Background()
	a, err := predictOnce(ctx, spec(7, 1), predictHooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := predictOnce(ctx, spec(7, 4), predictHooks{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := predictOnce(ctx, spec(8, 1), predictHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*predictResult{a, b, c} {
		if len(r.problems) > 0 {
			t.Fatalf("problems: %v", r.problems)
		}
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different worker counts: digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.digest)
	}
}

// The metric tables in this package are what BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestSeedRange(t *testing.T) {
	lo, hi, err := parseSeedRange("3-9")
	if err != nil || lo != 3 || hi != 9 {
		t.Fatalf("parseSeedRange(3-9) = %d, %d, %v", lo, hi, err)
	}
	if _, _, err := parseSeedRange("9-3"); err == nil {
		t.Fatal("empty range accepted")
	}
}
