package plans

import (
	"path/filepath"
	"testing"

	"repro/coverage"
	"repro/internal/conformance"
)

// The conformance corpus doubles as the library's warm-start seed
// population: optimizing a few corpus problems, publishing the plans,
// and re-asking for the same (or a perturbed) problem must hit.
func TestLibrarySeededFromCorpusProblems(t *testing.T) {
	corpora, err := conformance.LoadDir(filepath.Join("..", "..", "coverage", "testdata", "corpus"))
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	probs := conformance.Problems(corpora)
	if len(probs) < 20 {
		t.Fatalf("corpus yields %d distinct problems, want >= 20", len(probs))
	}

	lib, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed from the first few small single-sensor problems — cheap
	// optimizations; the corpus's full budgets belong to `make
	// conformance`, not here.
	var seeded []conformance.Problem
	for _, p := range probs {
		if p.Fleet != nil || len(p.Scenario.PoIs) > 6 {
			continue
		}
		plan, err := coverage.Optimize(p.Scenario, p.Objectives, coverage.Options{MaxIters: 30, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", p.Scenario.Name, err)
		}
		if _, err := lib.Publish(p.Scenario, p.Objectives, plan, Provenance{Source: "manual", Seed: 11}); err != nil {
			t.Fatalf("publish %s: %v", p.Scenario.Name, err)
		}
		seeded = append(seeded, p)
		if len(seeded) == 3 {
			break
		}
	}
	if len(seeded) < 3 {
		t.Fatalf("only %d seedable problems found", len(seeded))
	}

	// Exact-problem warm starts hit at distance 0.
	for _, p := range seeded {
		plan, dist, ok := lib.WarmStart(p.Scenario, p.Objectives, 1, nil)
		if !ok || plan == nil {
			t.Fatalf("%s: no warm start after seeding", p.Scenario.Name)
		}
		if dist != 0 {
			t.Errorf("%s: exact problem at distance %g, want 0", p.Scenario.Name, dist)
		}
	}

	// A perturbed target on the same topology warm-starts from the
	// published neighbor (nonzero distance, same matrix dimension).
	perturbed := seeded[0]
	target := append([]float64(nil), perturbed.Scenario.Target...)
	shift := 0.05
	target[0] += shift
	target[len(target)-1] -= shift
	perturbed.Scenario.Target = target
	plan, dist, ok := lib.WarmStart(perturbed.Scenario, perturbed.Objectives, 1, nil)
	if !ok || plan == nil {
		t.Fatal("perturbed problem found no warm start")
	}
	if dist <= 0 {
		t.Errorf("perturbed problem at distance %g, want > 0", dist)
	}
	if len(plan.TransitionMatrix) != len(perturbed.Scenario.PoIs) {
		t.Errorf("warm-start plan dimension %d for %d PoIs",
			len(plan.TransitionMatrix), len(perturbed.Scenario.PoIs))
	}
}
