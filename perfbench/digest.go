package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"resmod/internal/exper"
	"resmod/internal/faultsim"
)

// resultDigest hashes everything a prediction run decides: the
// prediction rows and every executed campaign's SummaryRecord, with the
// wall-clock fields zeroed.  Two runs that did the same work hash alike
// however they were scheduled, sharded or observed.
func resultDigest(rows []exper.PredictionRow, recs map[string]*faultsim.SummaryRecord) string {
	clean := make([]exper.PredictionRow, len(rows))
	copy(clean, rows)
	for i := range clean {
		clean[i].SmallTime, clean[i].SerialTime = 0, 0
	}
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ordered := make([]faultsim.SummaryRecord, 0, len(ids))
	for _, id := range ids {
		r := *recs[id]
		r.ElapsedNS = 0
		ordered = append(ordered, r)
	}
	b, err := json.Marshal(struct {
		Rows    []exper.PredictionRow
		Records []faultsim.SummaryRecord
	}{clean, ordered})
	if err != nil {
		// Rows and records are plain data; failing to encode them is a
		// bug in this file, not an input problem.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// referenceJSON holds predict-paper digests for a range of seeds,
// produced by --reference-seeds from a run whose results were checked.
//
//go:embed reference.json
var referenceJSON []byte

type references struct {
	// Predict maps a benchmark seed to the digest of predict-paper's
	// result for it; a sharded run must produce the same.
	Predict map[string]string `json:"predict"`
}

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// predictReference returns the kept digest for seed, if there is one.
func predictReference(seed uint64) (string, bool) {
	r, err := loadReferences()
	if err != nil {
		return "", false
	}
	d, ok := r.Predict[strconv.FormatUint(seed, 10)]
	return d, ok
}

// writeReferences computes predict-paper digests for seeds lo..hi (the
// argument "lo-hi") and prints reference.json to w.
func writeReferences(ctx context.Context, w io.Writer, span string) error {
	lo, hi, err := parseSeedRange(span)
	if err != nil {
		return err
	}
	refs := references{Predict: make(map[string]string)}
	for s := lo; s <= hi; s++ {
		res, err := predictOnce(ctx, paperSpec(s, runtime.GOMAXPROCS(0)), predictHooks{})
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if len(res.problems) > 0 {
			return fmt.Errorf("seed %d: %s", s, strings.Join(res.problems, "; "))
		}
		refs.Predict[strconv.FormatUint(s, 10)] = res.digest
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func parseSeedRange(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
	}
	if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q is empty", s)
	}
	return lo, hi, nil
}
