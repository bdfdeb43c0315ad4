package exper

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
	"resmod/internal/faultsim"
)

// tiny returns a session sized for unit testing (statistics are noisy but
// the pipelines are exercised end-to-end).
func tiny(t *testing.T) *Session {
	t.Helper()
	return NewSession(Config{Trials: 12, Seed: 42})
}

func TestTable1(t *testing.T) {
	rows, err := Table1(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	byBench := map[string]Table1Row{}
	for _, r := range rows {
		byBench[r.Bench+"/"+r.Class] = r
	}
	// Shape of the paper's Table 1: FT large, CG/MiniFE small but present,
	// MG/LU/PENNANT absent.
	if !byBench["FT/S"].HasUnique || byBench["FT/S"].UniqueFraction < 0.05 {
		t.Fatalf("FT/S unique = %+v", byBench["FT/S"])
	}
	if !byBench["CG/S"].HasUnique || byBench["CG/S"].UniqueFraction > 0.10 {
		t.Fatalf("CG/S unique = %+v", byBench["CG/S"])
	}
	for _, b := range []string{"MG/S", "LU/W", "PENNANT/leblanc"} {
		if byBench[b].HasUnique {
			t.Fatalf("%s should have no unique computation", b)
		}
	}
	// Bigger inputs shrink the fraction for CG and MiniFE (paper trend).
	if byBench["MiniFE/300"].UniqueFraction >= byBench["MiniFE/30"].UniqueFraction {
		t.Fatalf("MiniFE fraction did not shrink: %v vs %v",
			byBench["MiniFE/300"].UniqueFraction, byBench["MiniFE/30"].UniqueFraction)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "No parallel-unique comp") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

func TestPropagationPipeline(t *testing.T) {
	s := tiny(t)
	r, err := Propagation(s, "PENNANT", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SmallProfile) != 4 || len(r.LargeProfile) != 8 || len(r.Grouped) != 4 {
		t.Fatalf("profile shapes wrong: %+v", r)
	}
	if r.Cosine < 0 || r.Cosine > 1.0001 {
		t.Fatalf("cosine = %g", r.Cosine)
	}
	var buf bytes.Buffer
	RenderPropagation(&buf, r)
	if !strings.Contains(buf.String(), "grouped") {
		t.Fatal("render missing grouped panel")
	}
}

func TestFig3Pipeline(t *testing.T) {
	s := tiny(t)
	r, err := Fig3(s, "PENNANT", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SerialSuccess) != 4 {
		t.Fatalf("serial series length %d", len(r.SerialSuccess))
	}
	for x, v := range r.SerialSuccess {
		if v < 0 || v > 1 {
			t.Fatalf("serial success[%d] = %g", x, v)
		}
	}
	var buf bytes.Buffer
	RenderFig3(&buf, r)
	if !strings.Contains(buf.String(), "variance") {
		t.Fatal("render missing variance line")
	}
}

func TestPredictPipeline(t *testing.T) {
	s := tiny(t)
	// Predict 8 ranks from serial + 4 ranks (scaled-down Figure 5).
	row, err := PredictOne(s, "PENNANT", "", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if row.Error < 0 || row.Error > 1 {
		t.Fatalf("error = %g", row.Error)
	}
	if row.Measured.N == 0 || row.Predicted.Success < 0 {
		t.Fatalf("row = %+v", row)
	}
}

func TestPredictAllAndRender(t *testing.T) {
	s := tiny(t)
	rows, err := PredictAll(s, []string{"PENNANT", "LU"}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	avg, max := SummarizeErrors(rows)
	if avg > max || max > 1 {
		t.Fatalf("avg %g max %g", avg, max)
	}
	var buf bytes.Buffer
	RenderPredictions(&buf, rows)
	if !strings.Contains(buf.String(), "average error") {
		t.Fatal("render missing summary")
	}
}

func TestFig8Pipeline(t *testing.T) {
	s := tiny(t)
	points, err := Fig8(s, []string{"PENNANT"}, []int{2, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.RMSE < 0 || p.RMSE > 1 {
			t.Fatalf("RMSE = %g", p.RMSE)
		}
		if p.NormalizedTime() <= 0 {
			t.Fatalf("normalized time = %g", p.NormalizedTime())
		}
	}
	var buf bytes.Buffer
	RenderFig8(&buf, points)
	if !strings.Contains(buf.String(), "RMSE") {
		t.Fatal("render missing RMSE column")
	}
}

func TestSessionCaching(t *testing.T) {
	s := tiny(t)
	a, err := Propagation(s, "PENNANT", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running must hit the cache and return identical values.
	b, err := Propagation(s, "PENNANT", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.SmallProfile {
		if a.SmallProfile[i] != b.SmallProfile[i] {
			t.Fatal("cache returned different results")
		}
	}
	if len(s.camps) == 0 || len(s.goldens) == 0 {
		t.Fatal("session caches empty")
	}
}

func TestPropagationGroupingErrors(t *testing.T) {
	s := tiny(t)
	// 3 does not divide 8: grouping must fail cleanly.
	if _, err := Propagation(s, "PENNANT", 3, 8); err == nil {
		t.Fatal("indivisible grouping accepted")
	}
	if _, err := Propagation(s, "not-an-app", 4, 8); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestPredictOneUnknownApp(t *testing.T) {
	if _, err := PredictOne(tiny(t), "nope", "", 4, 8); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestPredictOneValidation: bad scales are rejected before any campaign
// is scheduled.
func TestPredictOneValidation(t *testing.T) {
	cases := []struct {
		name         string
		small, large int
	}{
		// A 1-rank small scale has no parallel-unique stream to inject.
		{"small=1", 1, 4},
		{"small does not divide large", 3, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var campaigns atomic.Int64
			s := NewSession(Config{Trials: 12, Seed: 42,
				OnCampaign: func(string, *faultsim.Summary) { campaigns.Add(1) }})
			if _, err := PredictOne(s, "CG", "", tc.small, tc.large); err == nil {
				t.Fatalf("small=%d large=%d accepted", tc.small, tc.large)
			}
			if n := campaigns.Load(); n != 0 {
				t.Fatalf("%d campaign(s) scheduled before rejection", n)
			}
		})
	}
}

func TestFig3UnknownApp(t *testing.T) {
	if _, err := Fig3(tiny(t), "nope", 4); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestScaleSweep(t *testing.T) {
	s := tiny(t)
	rows, err := ScaleSweep(s, "PENNANT", "", 2, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Large != 4 || rows[1].Large != 8 {
		t.Fatalf("rows = %+v", rows)
	}
	var buf bytes.Buffer
	RenderScaleSweep(&buf, rows)
	if !strings.Contains(buf.String(), "extrapolation depth") {
		t.Fatal("render missing header")
	}
	if _, err := ScaleSweep(s, "PENNANT", "", 3, []int{4}); err == nil {
		t.Fatal("non-multiple target accepted")
	}
}
