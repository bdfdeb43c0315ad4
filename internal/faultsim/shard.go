package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"

	"resmod/internal/stats"
	"resmod/internal/telemetry"
)

// Shard execution: the distributed tier's unit of work.  A shard is a
// contiguous trial range [Start, End) of one campaign, executed in
// isolation (typically on another process) and returned as partial
// tallies.  Because every trial's RNG stream is split from the campaign
// seed by the *global* trial index — never by shard index or worker
// identity — the union of any disjoint shard cover of [0, Trials) merges
// into a Summary bit-identical to a single-node run, whatever the worker
// count, dispatch order or re-shard history.  The partial-tally carrier
// is the Checkpoint: the same bitmap-plus-commutative-counts snapshot
// that makes resume bit-identical makes shard merging bit-identical —
// and a resume is itself a Merge of the saved snapshot.

// AbnormalTrial is one trial a shard abandoned after exhausting its
// retries — reported alongside the tallies so the coordinator can apply
// the campaign-wide MaxAbnormal budget with the same lowest-trial-index
// error reporting as a local run.
type AbnormalTrial struct {
	// Trial is the global trial index.
	Trial int
	// Err is the rendered harness error (errors do not survive JSON).
	Err string
}

// ShardResult is one executed shard's outcome: the partial tallies as a
// Checkpoint (Done bits exactly the shard's completed trials) plus the
// abnormal trials the shard abandoned.  The type is JSON-serializable —
// it is the wire payload a remote worker streams back.
type ShardResult struct {
	// Start and End echo the executed range.
	Start int
	End   int
	// Checkpoint holds the shard's tallies over the full campaign's
	// bitmap width, so merging is a plain bitwise OR plus count sums.
	Checkpoint *Checkpoint
	// Abnormal lists the trials abandoned after retries, if any.
	Abnormal []AbnormalTrial `json:",omitempty"`
}

// RunShardCtx executes trials [start, end) of the campaign against a
// precomputed golden and returns the shard's partial tallies.  It is a
// thin caller of the same trial loop and defaults RunAgainstCtx uses, so
// the embedded identity matches the coordinator's and each trial's RNG
// stream (split from Campaign.Seed by global trial index) is the one a
// local run would draw: the result is independent of how [0, Trials)
// was cut into shards.  A ShardObserver on the context sees the shard's
// tallies at the campaign's progress cadence and once at the end.
// Cancellation (or an exhausted Budget) aborts the shard with an error —
// a half-executed shard is the dispatcher's to retry, never to merge.
func RunShardCtx(ctx context.Context, c Campaign, golden *Golden, start, end int) (*ShardResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := c.prepare(golden)
	if err != nil {
		return nil, err
	}
	if start < 0 || end > c.Trials || start >= end {
		return nil, fmt.Errorf("faultsim: shard [%d,%d) outside campaign trials [0,%d)",
			start, end, c.Trials)
	}
	identity := c.Identity()
	tel := telemetry.From(ctx)
	ctx, span := tel.Tracer().Start(ctx, "shard",
		telemetry.String("id", identity),
		telemetry.Int("start", start), telemetry.Int("end", end),
		telemetry.Int("workers", c.Workers))
	defer span.End()

	// The aggregate spans the whole campaign's bitmap width so the
	// snapshot merges positionally; only [start, end) bits ever set.
	agg := newAggregate(c.Procs, c.Trials)
	obs := shardObserverFrom(ctx)
	every := progressEvery(c)
	interrupted := runRange(ctx, c, golden, agg, start, end, func(done uint64) {
		if obs != nil && done%every == 0 {
			obs(statusOf(agg, start, end))
		}
	})
	if obs != nil {
		obs(statusOf(agg, start, end))
	}

	res := &ShardResult{Start: start, End: end, Checkpoint: agg.snapshot(identity)}
	for _, te := range agg.abnormalTrials() {
		res.Abnormal = append(res.Abnormal, AbnormalTrial{Trial: te.trial, Err: te.err.Error()})
	}
	// A shard that blew the abnormal budget on its own returns its partial
	// result — the coordinator applies the campaign-wide budget and fails
	// the campaign with the same lowest-trial-index error a local run
	// reports.  Any other incompleteness is an interruption: the shard
	// must not be merged, only retried.
	if len(res.Abnormal) <= c.MaxAbnormal &&
		res.Checkpoint.Completed+uint64(len(res.Abnormal)) < uint64(end-start) {
		return nil, fmt.Errorf("faultsim: shard [%d,%d) interrupted after %d trials: %w",
			start, end, res.Checkpoint.Completed, interrupted)
	}
	span.SetAttr(telemetry.Attr{Key: "trials_done", Value: res.Checkpoint.Completed})
	return res, nil
}

// abnormalTrials snapshots the abnormal-trial list in deterministic
// (ascending trial index) order.
func (a *aggregate) abnormalTrials() []trialError {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]trialError(nil), a.abnormal...)
	sort.Slice(out, func(i, j int) bool { return out[i].trial < out[j].trial })
	return out
}

// Merger is the campaign executor's accumulator: it folds disjoint
// ShardResults of one campaign — remote shards, local shards, or a
// checkpoint being resumed — into the Summary a single uninterrupted run
// would have produced, and it is the one place campaign progress is
// published from.  Every result passes one validator before anything is
// mutated, so a rejected Merge leaves the Merger exactly as it was.  A
// checkpoint is a Merger snapshot.  It is safe for concurrent use
// (dispatchers merge as shards land).
type Merger struct {
	identity string
	trials   int
	maxAbn   int
	golden   *Golden
	start    time.Time
	agg      *aggregate
	// restored counts the trials a resumed checkpoint brought in: they
	// are excluded from the published rate and ETA.
	restored uint64

	// inflight holds the latest tallies of each tracked in-flight shard.
	mu       sync.Mutex
	inflight map[string]ShardStatus
}

// NewMerger prepares a merger for the campaign (with the same defaults
// RunShardCtx applies, so the identity matches what it embeds in its
// snapshots).
func NewMerger(c Campaign, golden *Golden) *Merger {
	c = c.withDefaults(golden)
	return &Merger{
		identity: c.Identity(),
		trials:   c.Trials,
		maxAbn:   c.MaxAbnormal,
		golden:   golden,
		start:    time.Now(),
		agg:      newAggregate(c.Procs, c.Trials),
		inflight: make(map[string]ShardStatus),
	}
}

// Identity returns the campaign identity shards must carry.
func (m *Merger) Identity() string { return m.identity }

// Merge folds one shard result in.  A result that belongs to another
// campaign, is internally inconsistent, or overlaps trials already
// accounted for is rejected whole — the dispatcher bug or hostile worker
// surfaces instead of corrupting counts, and the Merger is unchanged.
func (m *Merger) Merge(res *ShardResult) error {
	a := m.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkLocked(res, m.identity); err != nil {
		return err
	}
	ck := res.Checkpoint
	for i, w := range ck.Done {
		a.done[i] |= w
	}
	a.completed += ck.Completed
	a.counter.Success += ck.Success
	a.counter.SDC += ck.SDC
	a.counter.Failure += ck.Failure
	for i, n := range ck.Hist {
		a.hist[i] += n
	}
	for i, n := range ck.Spread {
		a.spread[i] += n
	}
	a.fired += ck.Fired
	for x, bc := range ck.ByContamination {
		dst := a.byCont[x]
		if dst == nil {
			dst = &stats.Counter{}
			a.byCont[x] = dst
		}
		dst.Success += bc.Success
		dst.SDC += bc.SDC
	}
	for _, ab := range res.Abnormal {
		a.abnormal = append(a.abnormal, trialError{trial: ab.Trial, err: errors.New(ab.Err)})
	}
	return nil
}

// checkLocked is the one validator every merged result (and so every
// resumed checkpoint) passes: it must belong to this campaign, cover only
// its own [Start, End), carry tallies consistent with its done bits, and
// account for no trial that is already accounted for.  It mutates
// nothing.  Callers hold a.mu.
func (a *aggregate) checkLocked(res *ShardResult, identity string) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrCheckpointMismatch}, args...)...)
	}
	if res == nil || res.Checkpoint == nil {
		return bad("nil shard result")
	}
	ck := res.Checkpoint
	if ck.Version != CheckpointVersion {
		return bad("snapshot version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Identity != identity {
		return bad("snapshot is of %q, campaign is %q", ck.Identity, identity)
	}
	if ck.Trials != a.trials || len(ck.Done) != len(a.done) ||
		len(ck.Hist) != len(a.hist) || len(ck.Spread) != len(a.spread) {
		return bad("snapshot shape does not fit the campaign")
	}
	if res.Start < 0 || res.Start >= res.End || res.End > a.trials {
		return bad("range [%d,%d) outside campaign trials [0,%d)", res.Start, res.End, a.trials)
	}
	var pop uint64
	for i, w := range ck.Done {
		if a.done[i]&w != 0 {
			return bad("shard overlaps already-merged trials")
		}
		for v := w; v != 0; v &= v - 1 {
			if t := i*64 + bits.TrailingZeros64(v); t < res.Start || t >= res.End {
				return bad("done trial %d outside [%d,%d)", t, res.Start, res.End)
			}
		}
		pop += uint64(bits.OnesCount64(w))
	}
	if pop != ck.Completed || ck.Success > pop || ck.SDC > pop || ck.Failure > pop ||
		ck.Success+ck.SDC+ck.Failure != pop {
		return bad("snapshot tallies are inconsistent (%d done bits, %d completed)", pop, ck.Completed)
	}
	// The contamination profile covers exactly the non-failure trials:
	// bin x-1 of Hist and the counter conditioned on x count the same
	// trials.
	var hist, cond uint64
	for _, n := range ck.Hist {
		if n > pop {
			return bad("contamination histogram exceeds %d trials", pop)
		}
		hist += n
	}
	for x, bc := range ck.ByContamination {
		if x < 1 || x > a.procs || bc.Failure != 0 || bc.Success > ck.Hist[x-1] ||
			bc.Success+bc.SDC != ck.Hist[x-1] || bc.Success+bc.SDC == 0 {
			return bad("conditional counter for %d contaminated ranks is inconsistent", x)
		}
		cond += bc.Success + bc.SDC
	}
	if hist != ck.Success+ck.SDC || cond != hist {
		return bad("contamination profile covers %d trials, outcomes %d", hist, ck.Success+ck.SDC)
	}
	accounted := a.abnormalSetLocked()
	for _, ab := range res.Abnormal {
		t := ab.Trial
		if t < res.Start || t >= res.End {
			return bad("abnormal trial %d outside [%d,%d)", t, res.Start, res.End)
		}
		if hasBit(ck.Done, t) || hasBit(a.done, t) || accounted[t] {
			return bad("abnormal trial %d is already accounted for", t)
		}
		accounted[t] = true
	}
	return nil
}

// abnormalSetLocked returns the abandoned trials as a set.  Callers hold
// a.mu.
func (a *aggregate) abnormalSetLocked() map[int]bool {
	set := make(map[int]bool, len(a.abnormal))
	for _, te := range a.abnormal {
		set[te.trial] = true
	}
	return set
}

// resume merges the checkpoint at path in as a shard covering the whole
// campaign.  A missing file is not an error — the campaign simply starts
// fresh, which makes `-resume` safe to pass unconditionally.
func (m *Merger) resume(path string) error {
	ck, err := LoadCheckpoint(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := m.Merge(&ShardResult{Start: 0, End: m.trials, Checkpoint: ck}); err != nil {
		return err
	}
	m.restored = m.Done()
	return nil
}

// AbnormalExceeded reports whether the merged abnormal trials already
// blow the campaign's MaxAbnormal budget — the dispatcher's cue to stop
// dispatching and fail the campaign via Summary's deterministic error.
func (m *Merger) AbnormalExceeded() bool {
	m.agg.mu.Lock()
	defer m.agg.mu.Unlock()
	return len(m.agg.abnormal) > m.maxAbn
}

// Done returns how many trials are tallied so far.
func (m *Merger) Done() uint64 {
	return m.Tallies().Done
}

// Complete reports whether every trial is accounted for (tallied or
// abandoned as abnormal).
func (m *Merger) Complete() bool {
	return len(m.Missing(0, m.trials)) == 0
}

// Missing returns the maximal contiguous unaccounted trial ranges within
// [start, end) — the re-dispatch list after a shard is lost.  A trial is
// accounted for once it is tallied or abandoned as abnormal (a local run
// likewise excludes abnormal trials rather than re-running them).
func (m *Merger) Missing(start, end int) [][2]int {
	a := m.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	abnormal := a.abnormalSetLocked()
	var out [][2]int
	for t := start; t < end; t++ {
		switch n := len(out); {
		case hasBit(a.done, t) || abnormal[t]:
		case n > 0 && out[n-1][1] == t:
			out[n-1][1]++
		default:
			out = append(out, [2]int{t, t + 1})
		}
	}
	return out
}

// Summary builds the merged campaign Summary.  Incomplete coverage or an
// exceeded abnormal budget is an error, with the same deterministic
// lowest-trial-index reporting as a local run; the result is otherwise
// bit-identical (Elapsed aside, which is wall time by definition) to
// RunAgainstCtx over the full range.
func (m *Merger) Summary() (*Summary, error) {
	if err := m.agg.fatalError(m.maxAbn); err != nil {
		return nil, err
	}
	if !m.Complete() {
		return nil, fmt.Errorf("faultsim: merged shards cover %d of %d trials",
			m.Done(), m.trials)
	}
	sum := m.agg.summary(m.golden)
	sum.Elapsed = time.Since(m.start)
	return sum, nil
}
