package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call.  Spans of one measured iteration share
// its Trace id; Parent is the span that caused this one (0 for none).
type span struct {
	ID     int64
	Parent int64
	Trace  int64
	Layer  string
	Name   string
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// add records a finished span and returns its id.
func (t *tracer) add(trace, parent int64, layer, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// newID reserves a span id for a span that is recorded when it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// addWithID records a finished span under an id from newID.
func (t *tracer) addWithID(id, trace, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ofTrace returns a copy of the spans of one trace.
func (t *tracer) ofTrace(trace int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as Chrome trace-event JSON under the build
// directory and returns the path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: s.Trace, TID: s.ID,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	dir := filepath.Join(buildDir(), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// buildDir is where the benchmark writes what it leaves behind: the
// directory run.sh builds into, else .bench_build in the working
// directory.
func buildDir() string {
	if d := os.Getenv("PERFBENCH_BUILD"); d != "" {
		return d
	}
	return ".bench_build"
}

// selfTimes attributes every instant of [start, end) to the innermost
// layer active at that instant, where rank orders layers from outer to
// inner.  With concurrent spans this is the time each layer was the
// deepest work in flight, so the self times plus the unattributed time
// (no ranked span active) add up to end-start exactly.
func selfTimes(spans []span, rank map[string]int, start, end time.Time) (self map[string]time.Duration, unattributed time.Duration) {
	type edge struct {
		at    time.Time
		rank  int
		delta int
	}
	var edges []edge
	byRank := make(map[int]string, len(rank))
	maxRank := 0
	for layer, r := range rank {
		byRank[r] = layer
		if r > maxRank {
			maxRank = r
		}
	}
	for _, s := range spans {
		r, ok := rank[s.Layer]
		if !ok {
			continue
		}
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if !a.Before(b) {
			continue
		}
		edges = append(edges, edge{a, r, +1}, edge{b, r, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	active := make([]int, maxRank+1)
	self = make(map[string]time.Duration)
	prev := start
	attribute := func(upto time.Time) {
		d := upto.Sub(prev)
		if d <= 0 {
			return
		}
		for r := maxRank; r >= 0; r-- {
			if active[r] > 0 {
				self[byRank[r]] += d
				return
			}
		}
		unattributed += d
	}
	for _, e := range edges {
		attribute(e.at)
		prev = e.at
		active[e.rank] += e.delta
	}
	attribute(end)
	return self, unattributed
}
