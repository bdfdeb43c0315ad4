package faultsim

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// gaugeApp tracks the high-water mark of concurrently executing trials.
type gaugeApp struct {
	cur, max *int64
}

func (gaugeApp) Name() string               { return "gauge-test" }
func (gaugeApp) Classes() []string          { return []string{"X"} }
func (gaugeApp) DefaultClass() string       { return "X" }
func (gaugeApp) MaxProcs(string) int        { return 8 }
func (gaugeApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (a gaugeApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	// Count each trial once (rank 0), not once per rank goroutine.
	if comm.Rank() == 0 {
		n := atomic.AddInt64(a.cur, 1)
		for {
			old := atomic.LoadInt64(a.max)
			if n <= old || atomic.CompareAndSwapInt64(a.max, old, n) {
				break
			}
		}
		defer atomic.AddInt64(a.cur, -1)
		// Dwell long enough that concurrent trials overlap observably.
		time.Sleep(2 * time.Millisecond)
	}
	s := 0.0
	for i := 0; i < 50; i++ {
		s = fc.Add(s, float64(i))
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestNilWorkerBudgetIsNoop(t *testing.T) {
	var b *WorkerBudget
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if b.Size() != 0 || b.InUse() != 0 {
		t.Fatal("nil budget reports tokens")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Acquire(ctx); err == nil {
		t.Fatal("nil budget ignored cancelled context")
	}
}

func TestWorkerBudgetBlocksAndCancels(t *testing.T) {
	b := NewWorkerBudget(1)
	if b.Size() != 1 {
		t.Fatalf("Size = %d", b.Size())
	}
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Acquire(ctx); err == nil {
		t.Fatal("second acquire on a full budget succeeded")
	}
	b.Release()
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

func TestSharedBudgetBoundsConcurrentCampaigns(t *testing.T) {
	// Two campaigns, each wanting 4 trial workers, share a 2-token
	// budget: the high-water mark of in-flight trials must be <= 2, and
	// both campaigns must still complete every trial.
	var cur, max int64
	app := gaugeApp{cur: &cur, max: &max}
	// The golden run executes outside the budget (it is not a trial), so
	// it is computed up front: a golden still running while the other
	// campaign's trials hold both tokens would otherwise read as a third
	// trial in flight.
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&max, 0)
	pool := NewWorkerBudget(2)
	var wg sync.WaitGroup
	sums := make([]*Summary, 2)
	errs := make([]error, 2)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = RunAgainst(Campaign{
				App: app, Procs: 2, Trials: 20, Seed: uint64(i + 1),
				Workers: 4, Pool: pool,
			}, golden)
		}(i)
	}
	wg.Wait()
	for i := range sums {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sums[i].Rates.N != 20 {
			t.Fatalf("campaign %d: N = %d, want 20", i, sums[i].Rates.N)
		}
	}
	if hw := atomic.LoadInt64(&max); hw > 2 {
		t.Fatalf("high-water mark %d trials in flight, budget is 2", hw)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d tokens leaked", pool.InUse())
	}
}

func TestPooledCampaignMatchesUnpooled(t *testing.T) {
	// The pool throttles scheduling only; outcomes must be bit-identical
	// to an unpooled run of the same campaign.
	c := Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 24, Seed: 7, Workers: 4}
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Pool = NewWorkerBudget(1)
	pooled, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rates != pooled.Rates {
		t.Fatalf("pooled rates %+v != unpooled %+v", pooled.Rates, plain.Rates)
	}
	if !reflect.DeepEqual(plain.Hist.Counts, pooled.Hist.Counts) {
		t.Fatalf("pooled hist %+v != unpooled %+v", pooled.Hist.Counts, plain.Hist.Counts)
	}
}
