package markov_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/fleet"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestAnalyzeValidation(t *testing.T) {
	if _, err := markov.Analyze(nil, markov.AnalyzeOptions{}); !errors.Is(err, markov.ErrNotStochastic) {
		t.Errorf("nil matrix err = %v", err)
	}
	bad, _ := mat.NewFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if _, err := markov.Analyze(bad, markov.AnalyzeOptions{}); err == nil {
		t.Error("reducible chain should fail analysis")
	}
}

func TestAnalyzeBasicProperties(t *testing.T) {
	top := topology.Topology2()
	base, err := mcmc.MetropolisHastings(top.Target())
	if err != nil {
		t.Fatalf("MetropolisHastings: %v", err)
	}
	a, err := markov.Analyze(base, markov.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.SLEM < 0 || a.SLEM >= 1 {
		t.Errorf("SLEM = %v", a.SLEM)
	}
	if math.Abs(a.SpectralGap-(1-a.SLEM)) > 1e-12 {
		t.Errorf("gap %v vs 1-SLEM %v", a.SpectralGap, 1-a.SLEM)
	}
	if a.MixingTime <= 0 {
		t.Errorf("mixing time %d", a.MixingTime)
	}
	if a.EntropyRate <= 0 || a.KemenyConstant <= 0 {
		t.Errorf("entropy %v kemeny %v", a.EntropyRate, a.KemenyConstant)
	}
	for i := range a.MeanExposure {
		if a.MeanExposure[i] <= 0 {
			t.Errorf("mean exposure[%d] = %v", i, a.MeanExposure[i])
		}
		if a.ExposureStdDev[i] < 0 {
			t.Errorf("exposure stddev[%d] = %v", i, a.ExposureStdDev[i])
		}
	}
}

// TestAnalyzeMeanExposureMatchesEq3 cross-checks the moment-based mean
// against the evaluation's Ē_i (Eq. 3) at an optimized schedule — two
// independent derivations.
func TestAnalyzeMeanExposureMatchesEq3(t *testing.T) {
	top := topology.Topology1()
	model, err := cost.NewModel(top, cost.Uniform(top.M(), 0, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	fm, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		t.Fatalf("fleet.NewModel: %v", err)
	}
	opt, err := descent.NewOptimizer(fm, descent.Options{Variant: descent.Perturbed, MaxIters: 150, Seed: 4})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ev, err := model.Evaluate(res.P)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	a, err := markov.Analyze(res.P, markov.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for i := range a.MeanExposure {
		if diff := math.Abs(a.MeanExposure[i] - ev.EBarI[i]); diff > 1e-7 {
			t.Errorf("PoI %d: moments mean %v vs Eq.3 %v", i, a.MeanExposure[i], ev.EBarI[i])
		}
	}
}

// TestAnalyzeExposureStdDevAgainstSimulation validates the analytic
// mean exposure against measured unit-step segment statistics.
func TestAnalyzeExposureStdDevAgainstSimulation(t *testing.T) {
	top := topology.Topology1()
	m := descent.RandomInit(rng.New(42), top.M(), 1e-6)
	a, err := markov.Analyze(m, markov.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	runs, err := sim.RunMany(sim.Config{
		Topology: top, P: m, Steps: 400000, Seed: 9, TimeModel: sim.UnitStep,
	}, 1)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	for i := range a.MeanExposure {
		got := runs[0].MeanExposure[i]
		if rel := math.Abs(got-a.MeanExposure[i]) / a.MeanExposure[i]; rel > 0.05 {
			t.Errorf("PoI %d: simulated mean %v vs analytic %v", i, got, a.MeanExposure[i])
		}
	}
}

// TestAnalyzeLazyChainsMixSlower ties the analysis together: adding
// laziness to a chain shrinks its spectral gap and grows its mixing
// time.
func TestAnalyzeLazyChainsMixSlower(t *testing.T) {
	busy, _ := mat.NewFromRows([][]float64{
		{0.2, 0.4, 0.4},
		{0.4, 0.2, 0.4},
		{0.4, 0.4, 0.2},
	})
	lazy, _ := mat.NewFromRows([][]float64{
		{0.9, 0.05, 0.05},
		{0.05, 0.9, 0.05},
		{0.05, 0.05, 0.9},
	})
	ab, err := markov.Analyze(busy, markov.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze busy: %v", err)
	}
	al, err := markov.Analyze(lazy, markov.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze lazy: %v", err)
	}
	if al.SpectralGap >= ab.SpectralGap {
		t.Errorf("lazy gap %v not below busy %v", al.SpectralGap, ab.SpectralGap)
	}
	if al.MixingTime <= ab.MixingTime {
		t.Errorf("lazy mixing %d not above busy %d", al.MixingTime, ab.MixingTime)
	}
	if al.EntropyRate >= ab.EntropyRate {
		t.Errorf("lazy entropy %v not below busy %v", al.EntropyRate, ab.EntropyRate)
	}
}
