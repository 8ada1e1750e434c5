package conformance

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validDoc is a minimal well-formed conformance/v1 document the
// malformed-input table mutates from.
const validDoc = `{
  "version": "conformance/v1",
  "family": "unit",
  "matrix": {"solvers": ["dense"], "workers": [1, 2]},
  "cases": [
    {
      "name": "a",
      "scenario": {
        "name": "line-3",
        "pois": [{"x": 0.5, "y": 0.5}, {"x": 1.5, "y": 0.5}, {"x": 2.5, "y": 0.5}],
        "target": [0.3, 0.3, 0.4]
      },
      "objectives": {"alpha": 1},
      "run": {"seed": 1, "maxIters": 10}
    },
    {
      "name": "b",
      "mode": "metropolis",
      "scenario": {
        "name": "line-3",
        "pois": [{"x": 0.5, "y": 0.5}, {"x": 1.5, "y": 0.5}, {"x": 2.5, "y": 0.5}],
        "target": [0.3, 0.3, 0.4]
      },
      "objectives": {"alpha": 1},
      "run": {"seed": 1, "maxIters": 0}
    }
  ],
  "invariants": [
    {"type": "cost_order", "cases": ["a", "b"]},
    {"type": "bitexact", "over": "workers", "cases": ["a"]}
  ]
}`

func TestReadCorpusAcceptsValidDocument(t *testing.T) {
	c, err := ReadCorpus(strings.NewReader(validDoc))
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if c.Family != "unit" || len(c.Cases) != 2 || len(c.Invariants) != 2 {
		t.Fatalf("decoded shape wrong: %+v", c)
	}
}

// Each entry corrupts the valid document one way; every corruption must
// be rejected with ErrCorpus and a message naming the problem.
func TestReadCorpusRejectsMalformedDocuments(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(string) string
		wantMsg string
	}{
		{
			name:    "wrong version",
			mutate:  func(s string) string { return strings.Replace(s, "conformance/v1", "conformance/v2", 1) },
			wantMsg: "version",
		},
		{
			name:    "missing version",
			mutate:  func(s string) string { return strings.Replace(s, `"version": "conformance/v1",`, "", 1) },
			wantMsg: "version",
		},
		{
			name: "unknown field",
			mutate: func(s string) string {
				return strings.Replace(s, `"family": "unit",`, `"family": "unit", "tolerances": 3,`, 1)
			},
			wantMsg: "unknown field",
		},
		{
			name:    "trailing data",
			mutate:  func(s string) string { return s + "\n{}" },
			wantMsg: "trailing data",
		},
		{
			name:    "duplicate case name",
			mutate:  func(s string) string { return strings.Replace(s, `"name": "b",`, `"name": "a",`, 1) },
			wantMsg: "duplicate case",
		},
		{
			name:    "unknown invariant case",
			mutate:  func(s string) string { return strings.Replace(s, `"cases": ["a", "b"]`, `"cases": ["a", "ghost"]`, 1) },
			wantMsg: `unknown case "ghost"`,
		},
		{
			name:    "unknown solver",
			mutate:  func(s string) string { return strings.Replace(s, `"solvers": ["dense"]`, `"solvers": ["cholesky"]`, 1) },
			wantMsg: "unknown solver",
		},
		{
			name:    "no workers",
			mutate:  func(s string) string { return strings.Replace(s, `"workers": [1, 2]`, `"workers": []`, 1) },
			wantMsg: "no worker counts",
		},
		{
			name: "bitexact over workers with one worker count",
			mutate: func(s string) string {
				return strings.Replace(s, `"workers": [1, 2]`, `"workers": [1]`, 1)
			},
			wantMsg: "bitexact over workers",
		},
		{
			name: "unknown invariant type",
			mutate: func(s string) string {
				return strings.Replace(s, `"type": "cost_order"`, `"type": "cost_orderings"`, 1)
			},
			wantMsg: "unknown invariant type",
		},
		{
			name:    "unknown mode",
			mutate:  func(s string) string { return strings.Replace(s, `"mode": "metropolis"`, `"mode": "anneal"`, 1) },
			wantMsg: "unknown mode",
		},
		{
			name: "target length mismatch",
			mutate: func(s string) string {
				return strings.Replace(s, `"target": [0.3, 0.3, 0.4]`, `"target": [0.5, 0.5]`, 1)
			},
			wantMsg: "targets for",
		},
		{
			name:    "not json",
			mutate:  func(string) string { return "families: [unit]" },
			wantMsg: "invalid",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadCorpus(strings.NewReader(tt.mutate(validDoc)))
			if err == nil {
				t.Fatal("malformed document accepted")
			}
			if !errors.Is(err, ErrCorpus) {
				t.Fatalf("err = %v, want ErrCorpus", err)
			}
			if !strings.Contains(err.Error(), tt.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tt.wantMsg)
			}
		})
	}
}

func TestValidateInvariantEdgeCases(t *testing.T) {
	base, err := ReadCorpus(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		iv      Invariant
		wantMsg string
	}{
		{"bound without min or max", Invariant{Type: InvBound, Cases: []string{"a"}, Metric: "cost"}, "neither min nor max"},
		{"bound with min above max", Invariant{Type: InvBound, Cases: []string{"a"}, Metric: "cost", Min: fptr(2), Max: fptr(1)}, "min 2 > max 1"},
		{"bound with unknown metric", Invariant{Type: InvBound, Cases: []string{"a"}, Metric: "latency", Max: fptr(1)}, "unknown metric"},
		{"monotone with one case", Invariant{Type: InvMonotone, Cases: []string{"a"}, Metric: "cost", Direction: DirNondecreasing}, ">= 2 cases"},
		{"monotone with bad direction", Invariant{Type: InvMonotone, Cases: []string{"a", "b"}, Metric: "cost", Direction: "sideways"}, "unknown direction"},
		{"share_order without minGap", Invariant{Type: InvShareOrder, Cases: []string{"a"}}, "minGap"},
		{"negative tolerance", Invariant{Type: InvCostOrder, Cases: []string{"a", "b"}, Tolerance: -0.1}, "negative tolerance"},
		{"bitexact over shards without splits", Invariant{Type: InvBitExact, Cases: []string{"a"}, Over: OverShards}, "shard splits"},
		{"bitexact over unknown dimension", Invariant{Type: InvBitExact, Cases: []string{"a"}, Over: "threads"}, "unknown bitexact dimension"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := *base
			c.Invariants = append(append([]Invariant(nil), base.Invariants...), tt.iv)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.wantMsg) {
				t.Fatalf("err = %v, want mention of %q", err, tt.wantMsg)
			}
		})
	}
}

// Encode → ReadCorpus must round-trip, and Encode must be
// deterministic: the byte identity is what confgen -check and the CI
// drift gate compare.
func TestEncodeRoundTripAndDeterminism(t *testing.T) {
	c, err := ReadCorpus(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if b1[len(b1)-1] != '\n' {
		t.Error("Encode output lacks trailing newline")
	}
	again, err := ReadCorpus(strings.NewReader(string(b1)))
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	b2, err := again.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("Encode is not a fixed point of decode∘encode")
	}
}

func TestLoadDirRejectsDuplicateFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"one.json", "two.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(validDoc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), `family "unit" in both`) {
		t.Fatalf("err = %v, want duplicate-family rejection", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	_, err := LoadDir(t.TempDir())
	if !errors.Is(err, ErrCorpus) {
		t.Fatalf("err = %v, want ErrCorpus for empty dir", err)
	}
}

// Problems must deduplicate by fingerprint: the metropolis twin of an
// optimize case is the same optimization problem and collapses onto it.
func TestProblemsDeduplicates(t *testing.T) {
	c, err := ReadCorpus(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	probs := Problems([]*Corpus{c, c})
	if len(probs) != 1 {
		t.Fatalf("Problems returned %d problems, want 1 (cases a and b share a fingerprint)", len(probs))
	}
	if probs[0].Scenario.Name != "line-3" {
		t.Fatalf("unexpected problem scenario %q", probs[0].Scenario.Name)
	}
}
