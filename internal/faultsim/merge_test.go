package faultsim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"resmod/internal/apps"
)

// resumeCampaign is the campaign behind testdata/resume_checkpoint.json
// (interrupted after 13 of 40 trials) and testdata/resume_record.json
// (its uninterrupted SummaryRecord, ElapsedNS zeroed).  Both files were
// written by an earlier version of the executor; resuming from them pins
// the on-disk format and the determinism contract across versions.
func resumeCampaign(t testing.TB) (Campaign, *Golden) {
	t.Helper()
	app, err := apps.Lookup("PENNANT")
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: app, Procs: 4, Trials: 40, Seed: 20180707, Workers: 3}
	golden, err := ComputeGolden(app, "", c.Procs, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return c, golden
}

// cloneResult deep-copies a shard result through its wire form.
func cloneResult(t testing.TB, res *ShardResult) *ShardResult {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out ShardResult
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestResumeFromEarlierCheckpointFile(t *testing.T) {
	c, golden := resumeCampaign(t)
	want, err := os.ReadFile(filepath.Join("testdata", "resume_record.json"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.Open(filepath.Join("testdata", "resume_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Resuming rewrites the checkpoint at exit, so work on a copy.
	path := filepath.Join(t.TempDir(), "ck.json")
	dst, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	dst.Close()

	resumed := c
	resumed.Checkpoint = path
	resumed.Resume = true
	resumed.ProgressEvery = 1
	sum, _, evs := runWithProgress(t, resumed, golden)
	if len(evs) == 0 || evs[0].Done != 13 {
		t.Fatalf("resumed run did not open at the checkpoint's 13 trials: %+v", evs)
	}
	rec := sum.Record(c.Normalized().Identity())
	rec.ElapsedNS = 0
	got, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("resumed record differs from the uninterrupted one:\n got %s\nwant %s", got, want)
	}
	full, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, full, sum, "resumed vs uninterrupted")
}

// TestMergerRejectionLeavesStateUnchanged: every rejected result —
// whatever part of it is wrong — leaves the Merger exactly as it was, so
// a re-dispatched chunk merges cleanly afterwards.
func TestMergerRejectionLeavesStateUnchanged(t *testing.T) {
	c, golden := shardTestCampaign(t)
	run := func(start, end int) *ShardResult {
		res, err := RunShardCtx(context.Background(), c, golden, start, end)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, mid := run(0, 30), run(30, 60)
	m := NewMerger(c, golden)
	if err := m.Merge(mid); err != nil {
		t.Fatal(err)
	}
	// An empty shard that abandoned trial 70 as abnormal.
	empty := cloneResult(t, mid)
	empty.Start, empty.End = 60, 90
	empty.Checkpoint = newAggregate(c.Procs, c.Trials).snapshot(m.Identity())
	empty.Abnormal = []AbnormalTrial{{Trial: 70, Err: "harness fault"}}
	if err := m.Merge(empty); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(r *ShardResult){
		"abnormal outside the campaign": func(r *ShardResult) { r.Abnormal = []AbnormalTrial{{Trial: 1000}} },
		"abnormal outside the range":    func(r *ShardResult) { r.Abnormal = []AbnormalTrial{{Trial: 45}} },
		"abnormal also done":            func(r *ShardResult) { r.Abnormal = []AbnormalTrial{{Trial: 5}} },
		"abnormal listed twice": func(r *ShardResult) {
			*r = *cloneResult(t, empty)
			r.Abnormal = []AbnormalTrial{{Trial: 80}, {Trial: 80}}
		},
		"abnormal already accounted": func(r *ShardResult) { *r = *cloneResult(t, empty) },
		"done bit outside the range": func(r *ShardResult) { r.Start = 10 },
		"empty range":                func(r *ShardResult) { r.End = r.Start },
		"overlap":                    func(r *ShardResult) { *r = *cloneResult(t, mid) },
		"foreign identity":           func(r *ShardResult) { r.Checkpoint.Identity += "/x" },
		"version":                    func(r *ShardResult) { r.Checkpoint.Version++ },
		"completed count":            func(r *ShardResult) { r.Checkpoint.Completed++ },
		"outcome tallies":            func(r *ShardResult) { r.Checkpoint.Success++ },
		"histogram":                  func(r *ShardResult) { r.Checkpoint.Hist[0]++ },
		"conditional key":            func(r *ShardResult) { r.Checkpoint.ByContamination[c.Procs+1] = r.Checkpoint.ByContamination[1] },
		"shape":                      func(r *ShardResult) { r.Checkpoint.Spread = r.Checkpoint.Spread[1:] },
		"nil checkpoint":             func(r *ShardResult) { r.Checkpoint = nil },
	}
	before, missing := m.Tallies(), m.Missing(0, c.Trials)
	for name, corrupt := range cases {
		bad := cloneResult(t, first)
		corrupt(bad)
		if err := m.Merge(bad); err == nil {
			t.Errorf("%s: corrupt result accepted", name)
			continue
		}
		if got := m.Tallies(); got != before || m.Done() != before.Done {
			t.Fatalf("%s: rejection changed the tallies: %+v, was %+v", name, got, before)
		}
		if got := m.Missing(0, c.Trials); !reflect.DeepEqual(got, missing) {
			t.Fatalf("%s: rejection changed coverage: %v, was %v", name, got, missing)
		}
	}
	if err := m.Merge(nil); err == nil {
		t.Error("nil result accepted")
	}
	if err := m.Merge(first); err != nil {
		t.Fatalf("re-dispatched chunk rejected after the bad attempts: %v", err)
	}
	if got := m.Missing(0, c.Trials); !reflect.DeepEqual(got, [][2]int{{60, 70}, {71, 90}}) {
		t.Fatalf("after the re-dispatch, missing %v, want [[60 70] [71 90]]", got)
	}
}

// FuzzMerge feeds arbitrary bytes, decoded as a ShardResult, to the one
// validator every shard result and resumed checkpoint passes.  It must
// never panic; a rejected input must leave the Merger unchanged; an
// accepted one must keep Success+SDC+Failure == Done.
func FuzzMerge(f *testing.F) {
	c, golden := resumeCampaign(f)
	prior, err := RunShardCtx(context.Background(), c, golden, 30, 40)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range [][2]int{{0, 30}, {25, 35}} {
		res, err := RunShardCtx(context.Background(), c, golden, r[0], r[1])
		if err != nil {
			f.Fatal(err)
		}
		b, _ := json.Marshal(res)
		f.Add(b)
	}
	ck, err := LoadCheckpoint(filepath.Join("testdata", "resume_checkpoint.json"))
	if err != nil {
		f.Fatal(err)
	}
	b, _ := json.Marshal(ShardResult{Start: 0, End: c.Trials, Checkpoint: ck})
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		var res ShardResult
		if json.Unmarshal(data, &res) != nil {
			return
		}
		m := NewMerger(c, golden)
		if err := m.Merge(prior); err != nil {
			t.Fatal(err)
		}
		before, missing := m.Tallies(), m.Missing(0, c.Trials)
		if err := m.Merge(&res); err != nil {
			if m.Tallies() != before || !reflect.DeepEqual(m.Missing(0, c.Trials), missing) {
				t.Fatalf("rejected merge (%v) changed the Merger", err)
			}
			return
		}
		st := m.Tallies()
		if st.Success+st.SDC+st.Failure != st.Done {
			t.Fatalf("accepted merge broke the outcome sum: %+v", st)
		}
		if sum := m.agg.summary(golden); sum.Rates.N != st.Done {
			t.Fatalf("summary counts %d trials, tallies %d", sum.Rates.N, st.Done)
		}
	})
}
