// Package dist is the distributed trial-execution tier: a coordinator
// Pool that shards a campaign's trial range [0, Trials) across
// registered Worker nodes over HTTP JSON, health-checks them via
// heartbeats, re-shards the unfinished ranges of dead workers onto
// survivors, and merges the returned shard tallies into a Summary
// bit-identical to a single-node run.
//
// Determinism across processes rests on two invariants the faultsim
// layer already provides: every trial's RNG stream is split from the
// campaign seed by the *global* trial index (never shard index or
// worker identity), and all shard tallies are commutative integer
// counts carried as faultsim Checkpoints and folded by one
// faultsim.Merger — so any disjoint cover of the trial range, in any
// dispatch order, with any re-shard history, merges to the same
// SummaryRecord bytes.
package dist

import (
	"fmt"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/telemetry"
)

// Correlation headers on coordinator→worker dispatch requests.  The
// request ID is the server middleware's X-Request-ID, echoed back on the
// response and folded into worker slog fields so one grep reconstructs a
// request's hop-by-hop story; the parent span ID names the coordinator's
// dispatch span so returned shard spans graft under it.
const (
	RequestIDHeader  = "X-Request-ID"
	ParentSpanHeader = "X-Parent-Span-ID"
)

// CampaignSpec is the JSON wire form of a faultsim.Campaign: exactly
// the identity-affecting fields plus the per-trial timeout.  Execution
// knobs that never enter cid:v2 (Workers, Pool, Budget, checkpoint and
// progress settings) deliberately do not cross the wire — each worker
// chooses its own trial concurrency, and the coordinator owns
// checkpointing of the merged result.
type CampaignSpec struct {
	App              string      `json:"app"`
	Class            string      `json:"class,omitempty"`
	Procs            int         `json:"procs"`
	Trials           int         `json:"trials"`
	Errors           int         `json:"errors"`
	Region           int         `json:"region"`
	Seed             uint64      `json:"seed"`
	TimeoutNS        int64       `json:"timeout_ns,omitempty"`
	SpreadErrors     bool        `json:"spread_errors,omitempty"`
	ContaminationTol float64     `json:"contamination_tol,omitempty"`
	Pattern          int         `json:"pattern,omitempty"`
	KindMask         uint8       `json:"kind_mask,omitempty"`
	FixedBit         *uint       `json:"fixed_bit,omitempty"`
	Window           *[2]float64 `json:"window,omitempty"`
	MaxAbnormal      int         `json:"max_abnormal,omitempty"`
	AbnormalRetries  int         `json:"abnormal_retries,omitempty"`
}

// SpecOf captures a campaign's wire form.  The campaign is normalized
// first so both sides derive the same cid:v2 identity from the spec.
func SpecOf(c faultsim.Campaign) CampaignSpec {
	c = c.Normalized()
	s := CampaignSpec{
		App:              c.App.Name(),
		Class:            c.Class,
		Procs:            c.Procs,
		Trials:           c.Trials,
		Errors:           c.Errors,
		Region:           int(c.Region),
		Seed:             c.Seed,
		TimeoutNS:        int64(c.Timeout),
		SpreadErrors:     c.SpreadErrors,
		ContaminationTol: c.ContaminationTol,
		Pattern:          int(c.Pattern),
		KindMask:         c.KindMask,
		MaxAbnormal:      c.MaxAbnormal,
		AbnormalRetries:  c.AbnormalRetries,
	}
	if c.FixedBit != nil {
		b := *c.FixedBit
		s.FixedBit = &b
	}
	if c.Window != nil {
		w := *c.Window
		s.Window = &w
	}
	return s
}

// Campaign reconstructs the executable campaign from the wire form,
// resolving the app by name in the receiving process's registry.
func (s CampaignSpec) Campaign() (faultsim.Campaign, error) {
	app, err := apps.Lookup(s.App)
	if err != nil {
		return faultsim.Campaign{}, fmt.Errorf("dist: %w", err)
	}
	c := faultsim.Campaign{
		App:              app,
		Class:            s.Class,
		Procs:            s.Procs,
		Trials:           s.Trials,
		Errors:           s.Errors,
		Region:           faultsim.RegionMode(s.Region),
		Seed:             s.Seed,
		Timeout:          time.Duration(s.TimeoutNS),
		SpreadErrors:     s.SpreadErrors,
		ContaminationTol: s.ContaminationTol,
		Pattern:          fpe.Pattern(s.Pattern),
		KindMask:         s.KindMask,
		MaxAbnormal:      s.MaxAbnormal,
		AbnormalRetries:  s.AbnormalRetries,
	}
	if s.FixedBit != nil {
		b := *s.FixedBit
		c.FixedBit = &b
	}
	if s.Window != nil {
		w := *s.Window
		c.Window = &w
	}
	return c, nil
}

// ShardRequest is the coordinator→worker dispatch payload: one
// contiguous trial range of one campaign, plus the observability the
// coordinator wants back.  Trace and Progress are observation-only —
// they never reach the campaign identity or the RNG streams.
type ShardRequest struct {
	Campaign CampaignSpec `json:"campaign"`
	Start    int          `json:"start"`
	End      int          `json:"end"`
	// Trace asks the worker to run the shard under its own tracer and
	// return the serialized spans in ShardResponse.Trace.
	Trace bool `json:"trace,omitempty"`
	// Progress, when set, asks the worker to stream live shard tallies
	// back to the coordinator while the shard runs.
	Progress *ProgressSpec `json:"progress,omitempty"`
}

// ProgressSpec tells a worker where and how often to report live shard
// progress: POST ShardProgressReports carrying Token to the
// coordinator's /v1/shards/progress at most every EveryNS nanoseconds.
// The token scopes reports to one dispatch attempt, so a retired
// chunk's stale reports can be recognized and dropped.
type ProgressSpec struct {
	Token   string `json:"token"`
	EveryNS int64  `json:"every_ns,omitempty"`
}

// ShardProgressReport is the worker→coordinator live-progress payload:
// the latest faultsim.ShardStatus of one in-flight shard.
type ShardProgressReport struct {
	Token  string               `json:"token"`
	Worker string               `json:"worker,omitempty"`
	Status faultsim.ShardStatus `json:"status"`
}

// ShardResponse is the worker's reply: the shard's partial tallies,
// plus (when the request asked for it) the worker-side spans recorded
// while executing the shard — the coordinator grafts them under its
// dispatch span so the job trace shows the true cross-fleet timeline.
type ShardResponse struct {
	Worker    string                `json:"worker"`
	Result    *faultsim.ShardResult `json:"result"`
	ElapsedNS int64                 `json:"elapsed_ns"`
	Trace     []telemetry.SpanView  `json:"trace,omitempty"`
}

// WorkerStats is the self-reported counter snapshot a worker piggybacks
// on every heartbeat; the coordinator aggregates these into the
// resmod_fleet_* metric families and /v1/cluster.
type WorkerStats struct {
	ShardsDone     uint64 `json:"shards_done"`
	ShardsFailed   uint64 `json:"shards_failed"`
	ShardsInflight uint64 `json:"shards_inflight"`
	TrialsDone     uint64 `json:"trials_done"`
	GoldenHits     uint64 `json:"golden_hits"`
	GoldenMisses   uint64 `json:"golden_misses"`
}

// registerRequest / registerResponse / heartbeatRequest are the worker
// control-plane payloads.
type registerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

type registerResponse struct {
	ID string `json:"id"`
}

type heartbeatRequest struct {
	ID string `json:"id"`
	// Stats piggybacks the worker's counter snapshot (nil from pre-PR 8
	// workers — the coordinator then has liveness but no detail).
	Stats *WorkerStats `json:"stats,omitempty"`
}

// errorResponse mirrors the server package's error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
