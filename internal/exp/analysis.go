package exp

import (
	"fmt"

	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TableMixing characterizes the converged schedules of the Tables I/II
// sweep beyond the paper's metrics: spectral gap, exact 1%-TV mixing
// time, entropy rate and worst-PoI exposure variability per α:β ratio.
// The trend mirrors the physical story — coverage-focused schedules dwell
// (small gap, slow mixing), exposure-focused ones commute (large gap).
func TableMixing(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology3()
	t := &Table{
		Title:   "Analysis: spectral/mixing/variability per α:β (Topology 3)",
		Columns: []string{"α:β", "spectral gap", "mixing (steps)", "entropy (nats)", "worst σ(E)"},
	}
	for i, r := range tradeoffRatios {
		res, err := optimize(top, r.alpha, r.beta, descent.Perturbed, sc, sc.Seed+uint64(500+i))
		if err != nil {
			return nil, fmt.Errorf("exp: mixing %s: %w", r.label, err)
		}
		a, err := markov.Analyze(res.P, markov.AnalyzeOptions{})
		if err != nil {
			return nil, fmt.Errorf("exp: mixing %s: %w", r.label, err)
		}
		var worst float64
		for _, s := range a.ExposureStdDev {
			if s > worst {
				worst = s
			}
		}
		t.Rows = append(t.Rows, []string{
			r.label,
			FormatFloat(a.SpectralGap),
			fmt.Sprintf("%d", a.MixingTime),
			FormatFloat(a.EntropyRate),
			FormatFloat(worst),
		})
	}
	return t, nil
}

// TableFleet measures how deploying extra sensors with the same optimized
// schedule shrinks the union exposure gaps (the multi-sensor extension;
// evaluated by exact simulation on Topology 1 with α=1, β=1).
func TableFleet(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	res, err := optimize(top, 1, 1, descent.Perturbed, sc, sc.Seed+700)
	if err != nil {
		return nil, fmt.Errorf("exp: fleet optimize: %w", err)
	}
	t := &Table{
		Title:   "Fleet: union coverage vs fleet size (Topology 1, α=1, β=1 schedule)",
		Columns: []string{"sensors", "ΔC (union)", "worst mean gap", "worst max gap"},
	}
	for _, k := range []int{1, 2, 3, 4} {
		met, err := sim.SimulateFleet(sim.FleetConfig{
			Topology: top,
			P:        res.P,
			Sensors:  k,
			Steps:    sc.SimSteps,
			Seed:     sc.Seed + 701,
			Stagger:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("exp: fleet k=%d: %w", k, err)
		}
		var worstMean, worstMax float64
		for i := range met.MeanGap {
			if met.MeanGap[i] > worstMean {
				worstMean = met.MeanGap[i]
			}
			if met.MaxGap[i] > worstMax {
				worstMax = met.MaxGap[i]
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			FormatFloat(met.DeltaC),
			FormatFloat(worstMean),
			FormatFloat(worstMax),
		})
	}
	return t, nil
}

// TableDetection quantifies the paper's motivating story — response
// delay to incidents — by overlaying Poisson incidents on three
// schedules for Topology 1: the optimized multi-objective chain, the
// Metropolis–Hastings coverage-only baseline, and the uniform random
// walk.
func TableDetection(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	n := top.M()
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.5
	}

	res, err := optimize(top, 1, 1, descent.Perturbed, sc, sc.Seed+600)
	if err != nil {
		return nil, fmt.Errorf("exp: detection optimize: %w", err)
	}
	mh, err := baselineMatrix(top)
	if err != nil {
		return nil, err
	}
	uniform := descent.UniformInit(n)

	t := &Table{
		Title:   "Detection: mean/worst incident response delay (Topology 1, rate 0.5/PoI)",
		Columns: []string{"schedule", "mean delay", "worst delay", "detected"},
	}
	schedules := []struct {
		name string
		p    *mat.Matrix
	}{
		{"steepest-descent (α=1, β=1)", res.P},
		{"metropolis-hastings", mh},
		{"uniform walk", uniform},
	}
	for _, s := range schedules {
		met, err := sim.RunIncidents(sim.Config{
			Topology: top,
			P:        s.p,
			Steps:    sc.SimSteps,
			Seed:     sc.Seed + 601,
		}, rates)
		if err != nil {
			return nil, fmt.Errorf("exp: detection %s: %w", s.name, err)
		}
		var worst float64
		var detected int64
		for i := 0; i < n; i++ {
			if met.MaxDelay[i] > worst {
				worst = met.MaxDelay[i]
			}
			detected += met.Detected[i]
		}
		t.Rows = append(t.Rows, []string{
			s.name,
			FormatFloat(met.OverallMeanDelay),
			FormatFloat(worst),
			fmt.Sprintf("%d", detected),
		})
	}
	return t, nil
}
