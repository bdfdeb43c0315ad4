package dist

import (
	"fmt"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Coordinator-side live progress for distributed campaigns.  Each chunk
// attempt gets a single-use token; a worker streams ShardProgressReports
// carrying that token to POST /v1/shards/progress, and the Pool routes
// each to its campaign's faultsim.Merger, which folds the latest
// in-flight tallies together with everything already merged and
// publishes the same campaign-kind ProgressEvents a local run does — so
// SSE streams, /v1/status and TTY bars keep moving while the trials run
// on other machines.  The Pool only routes; the Merger owns the view.
// Tokens are retired when their chunk merges or is requeued, so a report
// from a dead worker's abandoned attempt can never double-count trials
// that a survivor re-executes.

// ReportProgress routes one worker report to its campaign's Merger.
// False means the token is unknown — the dispatch attempt was already
// merged, requeued, or belongs to a previous coordinator life.
func (p *Pool) ReportProgress(rep ShardProgressReport) bool {
	p.progMu.Lock()
	fn := p.progSinks[rep.Token]
	p.progMu.Unlock()
	if fn == nil {
		p.progressStale.Add(1)
		return false
	}
	p.progressReports.Add(1)
	fn(rep.Status)
	return true
}

// track opens one chunk attempt's progress token on m.  Tallies
// reported under it — over HTTP by token, or straight from a local shard
// through the returned observer — fold into m's in-flight view and
// republish.  With no bus it returns "" and a nil observer: no progress
// is requested.
func (p *Pool) track(m *faultsim.Merger, bus *telemetry.Progress) (string, faultsim.ShardObserver) {
	if bus == nil {
		return "", nil
	}
	p.progMu.Lock()
	p.progSeq++
	token := fmt.Sprintf("t%d", p.progSeq)
	report := func(st faultsim.ShardStatus) {
		if m.Report(token, st) {
			m.Publish(bus, telemetry.StateRunning)
		}
	}
	if p.progSinks == nil {
		p.progSinks = make(map[string]faultsim.ShardObserver)
	}
	p.progSinks[token] = report
	p.progMu.Unlock()
	m.Track(token)
	return token, report
}

// untrack retires a chunk attempt's token: later reports carrying it
// count as stale and are dropped, and its in-flight tallies leave m's
// view.
func (p *Pool) untrack(m *faultsim.Merger, token string) {
	if token == "" {
		return
	}
	p.progMu.Lock()
	delete(p.progSinks, token)
	p.progMu.Unlock()
	m.Untrack(token)
}
