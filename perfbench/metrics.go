package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.  The lists below must match
// BENCHMARK.json (a test checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics every untraced run reports.  Each workload
// gives predict_s its own meaning (README.md): the time to one result.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"predict_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"exper.stage_s.serial", "s", "lower"},
	{"exper.stage_s.small", "s", "lower"},
	{"exper.stage_s.unique", "s", "lower"},
	{"exper.stage_s.large", "s", "lower"},
	{"exper.slot_wait_s", "s", "lower"},
	{"exper.overlap", "ratio", "higher"},
	{"exper.cpu_util", "ratio", "higher"},
	{"exper.scaling_eff", "ratio", "higher"},
	{"faultsim.trial_ms.p1", "ms", "lower"},
	{"faultsim.trial_ms.p4", "ms", "lower"},
	{"faultsim.trial_ms.p16", "ms", "lower"},
	{"faultsim.trial_ms.p64", "ms", "lower"},
	{"faultsim.golden_ms.p64", "ms", "lower"},
	{"faultsim.abnormal", "count", "lower"},
	{"faultsim.retried", "count", "lower"},
	{"apps.exec_ms.p1", "ms", "lower"},
	{"apps.exec_ms.p4", "ms", "lower"},
	{"apps.exec_ms.p16", "ms", "lower"},
	{"apps.exec_ms.p64", "ms", "lower"},
	{"fpe.ops.p1", "count", "lower"},
	{"fpe.ops.p4", "count", "lower"},
	{"fpe.ops.p16", "count", "lower"},
	{"fpe.ops.p64", "count", "lower"},
	{"fpe.ns_per_op.p1", "ns", "lower"},
	{"simmpi.msgs.p16", "count", "lower"},
	{"simmpi.msgs.p64", "count", "lower"},
	{"simmpi.mb.p16", "MB", "lower"},
	{"simmpi.mb.p64", "MB", "lower"},
	{"simmpi.comm_ms.p64", "ms", "lower"},
	{"core.predict_us", "us", "lower"},
	{"dist.distribute_s", "s", "lower"},
	{"dist.shard_ms", "ms", "lower"},
	{"dist.dispatch_overhead_ms", "ms", "lower"},
	{"dist.shards", "count", "lower"},
	{"dist.requeued", "count", "lower"},
	{"dist.local", "count", "lower"},
	{"server.submit_ms.p50", "ms", "lower"},
	{"server.submit_ms.p99", "ms", "lower"},
	{"server.queue_wait_s.p50", "s", "lower"},
	{"server.job_s.p50", "s", "lower"},
	{"server.shed", "count", "lower"},
	{"server.metrics_ms.p50", "ms", "lower"},
	{"server.metrics_ms.p99", "ms", "lower"},
	{"server.status_ms.p50", "ms", "lower"},
	{"store.hit_frac", "ratio", "higher"},
	{"store.misses", "count", "lower"},
	{"store.puts", "count", "lower"},
	{"pred_abs_err", "ratio", "lower"},
	{"warm_p50_ms", "ms", "lower"},
	{"warm_p99_ms", "ms", "lower"},
	{"warm_slo_frac", "ratio", "higher"},
	{"warm_samples", "count", "higher"},
	{"warm_top_pct", "pct", "higher"},
	{"warm_top_ms", "ms", "lower"},
	{"cold_p50_s", "s", "lower"},
	{"cold_samples", "count", "higher"},
	{"fail_frac", "ratio", "lower"},
	{"bench.gen_lag_ms.p99", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.unattributed_frac", "ratio", "lower"},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// topPercentile applies the reporting rule for timings: the highest
// percentile on the ladder that still has at least ten of n samples
// beyond it (nearest-rank).  It returns 0 when even the median lacks ten.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= 10 {
			top = p
		}
	}
	return top
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durSecs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "] s"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostInfo is recorded with every run so a number names its machine.
func hostInfo(rc *runCtx) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      rc.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.window.Seconds(),
		"trace":      rc.trace,
	}
}

// timingLine prints a timing's sample count, median and the reporting
// rule's top percentile.
func (rc *runCtx) timingLine(name string, xs []float64, unit string) {
	top := topPercentile(len(xs))
	if top == 0 {
		rc.info("%s: n=%d median=%.4g %s (no percentile has 10 samples beyond it)", name, len(xs), median(xs), unit)
		return
	}
	rc.info("%s: n=%d median=%.4g %s p%g=%.4g %s", name, len(xs), median(xs), unit, top, quantile(xs, top/100), unit)
}

// splitmix64 derives the program's inputs from the benchmark seed, so
// the program never sees the seed itself.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the seed for one named input of the run.
func deriveSeed(seed uint64, what string) uint64 {
	h := seed
	for _, c := range what {
		h = splitmix64(h ^ uint64(c))
	}
	return h
}
