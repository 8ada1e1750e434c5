package conformance

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/coverage"
)

// testCorpus builds a small in-memory family over a 3-PoI line: an
// optimized case, its Metropolis twin, and a second optimized case with
// more restarts, exercised over a dense 1/2-worker matrix with a
// 2-shard split.
func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	scn, err := coverage.LineScenario("runner-line-3", 3, []float64{0.5, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-4}
	c := &Corpus{
		Version: Version,
		Family:  "runner-unit",
		Matrix:  Matrix{Solvers: []string{"dense"}, Workers: []int{1, 2}, Shards: []int{2}},
		Cases: []Case{
			{Name: "opt", Scenario: scn, Objectives: obj, Run: Budget{Seed: 7, MaxIters: 80}},
			{Name: "baseline", Mode: ModeMetropolis, Scenario: scn, Objectives: obj},
			{Name: "multi", Scenario: scn, Objectives: obj, Run: Budget{Seed: 7, MaxIters: 80, Restarts: 3}},
		},
		Invariants: []Invariant{
			{Type: InvCostOrder, Cases: []string{"opt", "baseline"}},
			{Type: InvBitExact, Over: OverWorkers, Cases: []string{"opt", "multi"}},
			{Type: InvBitExact, Over: OverShards, Cases: []string{"multi"}},
			{Type: InvShareOrder, Cases: []string{"opt"}, MinGap: 0.25, Tolerance: 0.1},
			{Type: InvBound, Cases: []string{"opt"}, Metric: "cost", Min: fptr(0), Max: fptr(1e6)},
		},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("test corpus invalid: %v", err)
	}
	return c
}

func TestRunnerPassesSoundCorpus(t *testing.T) {
	c := testCorpus(t)
	rep, err := Run(context.Background(), []*Corpus{c}, Config{Parallel: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Pass() {
		t.Fatalf("sound corpus failed: %s\n%+v", rep.Summary(), rep.Files[0].Checks)
	}
	if rep.Cases != 3 {
		t.Errorf("Cases = %d, want 3", rep.Cases)
	}
	// Per-cell invariants run per worker count; bitexact groups once per
	// solver: 3 non-bitexact × 2 workers + 2 bitexact = 8.
	if rep.Checks != 8 {
		t.Errorf("Checks = %d, want 8", rep.Checks)
	}
	// The report must include the executed results for diagnostics,
	// including the sharded variant.
	fr := rep.Files[0]
	for _, key := range []string{"dense/w1/opt", "dense/w2/opt", "dense/w1/shards2/multi"} {
		if _, ok := fr.Results[key]; !ok {
			t.Errorf("result %q missing from report", key)
		}
	}
}

// The runner's report must be independent of parallelism: execution is
// memoized per cell and checks are sorted, so Parallel only changes the
// wall clock.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	c := testCorpus(t)
	serial, err := Run(context.Background(), []*Corpus{c}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), []*Corpus{c}, Config{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Files[0].Checks) != len(par.Files[0].Checks) {
		t.Fatal("check counts differ across parallelism")
	}
	for i, ch := range serial.Files[0].Checks {
		if par.Files[0].Checks[i] != ch {
			t.Errorf("check %d differs: serial %+v, parallel %+v", i, ch, par.Files[0].Checks[i])
		}
	}
	for key, m := range serial.Files[0].Results {
		if par.Files[0].Results[key].Digest != m.Digest {
			t.Errorf("digest for %s differs across parallelism", key)
		}
	}
}

// A violated invariant must fail with a diagnostic that names the
// offending cases and values — the per-invariant diagnostics are the
// point of the structured report.
func TestRunnerReportsViolations(t *testing.T) {
	c := testCorpus(t)
	c.Invariants = []Invariant{
		// Backwards: the Metropolis baseline cannot beat the optimizer.
		{Type: InvCostOrder, Cases: []string{"baseline", "opt"}},
		// Impossible envelope.
		{Type: InvBound, Cases: []string{"opt"}, Metric: "cost", Max: fptr(-1)},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), []*Corpus{c}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("violated invariants reported as pass")
	}
	// Both invariants fail under both worker counts.
	if rep.Failures != 4 {
		t.Errorf("Failures = %d, want 4", rep.Failures)
	}
	var sawOrder, sawBound bool
	for _, ch := range rep.Files[0].Checks {
		if ch.Pass {
			t.Errorf("check %s unexpectedly passed", ch.Invariant)
			continue
		}
		switch {
		case strings.HasPrefix(ch.Invariant, InvCostOrder):
			sawOrder = true
			if !strings.Contains(ch.Detail, "cost(baseline)") || !strings.Contains(ch.Detail, "cost(opt)") {
				t.Errorf("cost_order detail %q does not name both cases' costs", ch.Detail)
			}
		case strings.HasPrefix(ch.Invariant, InvBound):
			sawBound = true
			if !strings.Contains(ch.Detail, "max -1") {
				t.Errorf("bound detail %q does not show the bound", ch.Detail)
			}
		}
	}
	if !sawOrder || !sawBound {
		t.Errorf("missing failure checks (order=%v bound=%v)", sawOrder, sawBound)
	}
}

// Config filters restrict the matrix but can never extend it past what
// the corpus declares, and filtering everything out is an error.
func TestRunnerConfigFilters(t *testing.T) {
	c := testCorpus(t)
	rep, err := Run(context.Background(), []*Corpus{c}, Config{Solvers: []string{"dense", "sparse"}, Workers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for key := range rep.Files[0].Results {
		if strings.HasPrefix(key, "sparse/") {
			t.Errorf("filter added solver not in the corpus matrix: %s", key)
		}
		if strings.HasPrefix(key, "dense/w2/") {
			t.Errorf("filtered worker count executed: %s", key)
		}
	}
	if _, err := Run(context.Background(), []*Corpus{c}, Config{Solvers: []string{"sparse"}}); err == nil {
		t.Fatal("empty filtered matrix did not error")
	}
}

// The sharded-restart path must reproduce the monolithic multi-start
// run bit for bit — checked here directly against executeCase rather
// than through a corpus invariant.
func TestShardedMergeMatchesMonolithic(t *testing.T) {
	c := testCorpus(t)
	var multi Case
	for _, cs := range c.Cases {
		if cs.Name == "multi" {
			multi = cs
		}
	}
	ctx := context.Background()
	mono, err := executeCase(ctx, multi, "dense", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 5 /* > restarts: clamps */} {
		sharded, err := executeCase(ctx, multi, "dense", 1, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if sharded.Digest != mono.Digest {
			t.Errorf("shards=%d: digest %s != monolithic %s", shards, sharded.Digest, mono.Digest)
		}
	}
}

// Cancelling the context must abort the run with the context's error.
func TestRunnerHonorsCancellation(t *testing.T) {
	c := testCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, []*Corpus{c}, Config{}); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestReportJSONRoundTrip encodes the report of the checked-in paper
// topologies, whose Metropolis cells cost +Inf, and decodes it back:
// non-finite metrics travel as the strings "+Inf", "-Inf" and "NaN".
func TestReportJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run skipped in -short")
	}
	c, err := LoadFile(filepath.Join("..", "..", "coverage", "testdata", "corpus", "paper-topologies.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), []*Corpus{c}, Config{Workers: []int{1}, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !strings.Contains(string(raw), `"cost":"+Inf"`) {
		t.Fatal(`no metropolis cell encoded "cost":"+Inf"; the fixture must carry a non-finite metric`)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Float64bits equality also matches NaN with NaN.
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for f, file := range rep.Files {
		for key, want := range file.Results {
			got, ok := back.Files[f].Results[key]
			if !ok {
				t.Fatalf("%s: missing after the round trip", key)
			}
			floats := [][2]float64{{got.Cost, want.Cost}, {got.DeltaC, want.DeltaC}, {got.EBar, want.EBar},
				{got.Energy, want.Energy}, {got.EnergyGap, want.EnergyGap}, {got.Entropy, want.Entropy}}
			if len(got.Shares) != len(want.Shares) {
				t.Fatalf("%s: %d shares back, want %d", key, len(got.Shares), len(want.Shares))
			}
			for i := range want.Shares {
				floats = append(floats, [2]float64{got.Shares[i], want.Shares[i]})
			}
			for _, p := range floats {
				if !same(p[0], p[1]) {
					t.Fatalf("%s: %v back, want %v", key, p[0], p[1])
				}
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Digest != want.Digest {
				t.Fatalf("%s: %+v back, want %+v", key, got, want)
			}
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0.5} {
		raw, err := json.Marshal(Metrics{Cost: v})
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if err := json.Unmarshal(raw, &m); err != nil || !same(m.Cost, v) {
			t.Fatalf("cost %v: %s decodes to %v (%v)", v, raw, m.Cost, err)
		}
	}
}
