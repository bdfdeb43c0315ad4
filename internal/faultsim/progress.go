package faultsim

import (
	"time"

	"resmod/internal/telemetry"
)

// DefaultProgressDivisor sets the default snapshot cadence: a campaign
// publishes roughly this many live-progress snapshots over its lifetime
// (Campaign.ProgressEvery overrides; minimum one trial between
// snapshots).
const DefaultProgressDivisor = 100

// progressEvery resolves the snapshot period in trials.
func progressEvery(c Campaign) uint64 {
	if c.ProgressEvery > 0 {
		return uint64(c.ProgressEvery)
	}
	every := c.Trials / DefaultProgressDivisor
	if every < 1 {
		every = 1
	}
	return uint64(every)
}

// Publish posts the campaign's progress event in the given state to bus
// (a no-op when bus is nil): the merged tallies plus the latest tallies of
// every tracked in-flight shard, with rate and ETA over the trials run
// since the Merger was created — a resumed checkpoint's trials are
// excluded, so a 90%-restored campaign doesn't report a fantasy rate.
// This is the one progress path: local runs publish from the trial loop's
// cadence, distributed ones as shards report and merge.  It is
// observation-only and never touches RNG streams, trial scheduling or
// the campaign identity.
func (m *Merger) Publish(bus *telemetry.Progress, state string) {
	if bus == nil {
		return
	}
	st := m.Tallies()
	m.mu.Lock()
	for _, s := range m.inflight {
		st.Done += s.Done
		st.Success += s.Success
		st.SDC += s.SDC
		st.Failure += s.Failure
		st.Abnormal += s.Abnormal
		st.Retried += s.Retried
	}
	m.mu.Unlock()
	bus.Publish(BuildProgressEvent(m.identity, state, m.trials, st, time.Since(m.start), st.Done-m.restored))
}

// Track opens key as an in-flight shard: tallies Reported under it count
// toward published progress until Untrack.
func (m *Merger) Track(key string) {
	m.mu.Lock()
	m.inflight[key] = ShardStatus{}
	m.mu.Unlock()
}

// Report replaces the in-flight tallies of a tracked key.  It returns
// false, dropping the report, when key is not tracked — so a report from
// an attempt already merged or abandoned can never double-count trials
// that run again elsewhere.
func (m *Merger) Report(key string, st ShardStatus) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.inflight[key]; !ok {
		return false
	}
	m.inflight[key] = st
	return true
}

// Untrack drops an in-flight key's tallies: its shard merged (the merged
// tallies now cover it) or was abandoned.
func (m *Merger) Untrack(key string) {
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
}

// noteRetried counts one abnormal-trial retry for live snapshots (the
// Sink counts the same event process-wide).
func (a *aggregate) noteRetried() {
	a.mu.Lock()
	a.retried++
	a.mu.Unlock()
}
