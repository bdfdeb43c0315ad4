// Command perfbench is resmod's benchmark.  It drives the program's public
// packages from the outside — exper sessions, faultsim campaigns, the dist
// coordinator and workers, the prediction server and its store — on three
// workloads, checks every result, and prints one JSON result line:
//
//	perfbench --workload predict-paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans around every layer boundary it can see from
// outside and reports the per-layer metrics instead.  README.md lists the
// metrics, the layer each one belongs to and the workload that should
// move it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "resmod" // registers the benchmark applications
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(rc *runCtx) error{
	"predict-paper": runPredict,
	"campaign-p64":  runCampaignP64,
	"serve-mixed":   runServe,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	refSeeds := fs.String("reference-seeds", "", "print reference digests for seeds LO-HI (predict-paper) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *refSeeds != "" {
		return writeReferences(ctx, stdout, *refSeeds)
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	rc := &runCtx{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		out:      stdout,
		vals:     make(map[string]float64),
	}
	runtime.GOMAXPROCS(rc.nproc)
	defer rc.cleanup()
	if rc.trace {
		rc.spans = newTracer()
	}
	host := hostInfo(rc)
	b, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host: %s\n", b)
	if err := drive(rc); err != nil {
		return fmt.Errorf("%s: %w", rc.workload, err)
	}
	rc.set("peak_rss_mb", peakRSSMB())
	if rc.trace {
		path, err := rc.spans.write(rc.workload, rc.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", rc.spans.len(), path)
	}
	return rc.emit()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runCtx is one benchmark run: its inputs, the metrics it collects and
// the resources it must release before exiting.
type runCtx struct {
	ctx      context.Context
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	nproc    int
	out      io.Writer
	spans    *tracer // nil unless tracing

	vals      map[string]float64
	attempted int64
	failed    int64
	problems  []string
	closers   []func()
}

// set records a metric value.
func (rc *runCtx) set(name string, v float64) { rc.vals[name] = v }

// op counts one attempted operation and, when ok is false, one failure.
func (rc *runCtx) op(ok bool) {
	rc.attempted++
	if !ok {
		rc.failed++
	}
}

// problem records a correctness failure; the run then reports
// correct=false.
func (rc *runCtx) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rc.problems = append(rc.problems, msg)
	fmt.Fprintln(rc.out, "INCORRECT:", msg)
}

// info prints a human-readable line before the result line.
func (rc *runCtx) info(format string, args ...any) {
	fmt.Fprintf(rc.out, format+"\n", args...)
}

// onExit registers a release function; they run in reverse order.
func (rc *runCtx) onExit(f func()) { rc.closers = append(rc.closers, f) }

func (rc *runCtx) cleanup() {
	for i := len(rc.closers) - 1; i >= 0; i-- {
		rc.closers[i]()
	}
	rc.closers = nil
}

// setup runs a workload's set-up reps times and records the median as
// setup_s.  Every set-up but the last is released at once; the last one's
// release runs when the benchmark exits.
func (rc *runCtx) setup(reps int, once func() (release func(), err error)) error {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		release, err := once()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			release()
		} else {
			rc.onExit(release)
		}
	}
	rc.set("setup_s", median(times))
	rc.info("setup_s: median of %d set-ups %s", reps, fmtSecs(times))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the result line: every end-to-end metric untraced, every
// per-layer metric traced.  A metric a workload does not exercise reads 0.
func (rc *runCtx) emit() error {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		rc.set("fail_frac", ratio(float64(rc.failed), float64(rc.attempted)))
	}
	res := result{
		Correct:   len(rc.problems) == 0 && rc.failed == 0 && rc.attempted > 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rc.vals[d.Name]
		if !ok && !rc.trace {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return errors.New("workload did not measure " + strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(rc.out, "%s\n", b)
	return err
}
