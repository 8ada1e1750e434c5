package markov

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// ChainAnalysis characterizes a schedule beyond the paper's two headline
// metrics: how fast the chain forgets its start (spectral gap, mixing
// time) and how variable — not just how long on average — each PoI's
// exposure intervals are. The exposure variance uses the first-passage
// second moments: conditional on leaving PoI i toward j, the segment
// length is the first-passage time T_ji, so the segment law is the
// p_ij/(1−p_ii)-mixture over j of those passage laws (the same mixture as
// the paper's Eq. 3 for the mean).
type ChainAnalysis struct {
	// SLEM is the second-largest eigenvalue modulus of P.
	SLEM float64
	// SpectralGap is 1 − SLEM.
	SpectralGap float64
	// MixingTime is the exact ε-mixing time in steps (ε from the call),
	// or maxSteps+1 when the budget was exceeded.
	MixingTime int
	// EntropyRate is the schedule's entropy rate in nats.
	EntropyRate float64
	// KemenyConstant is the mean steps to stationarity-weighted targets,
	// a start-independent global connectivity measure.
	KemenyConstant float64
	// ConditionNumber is the Funderlic–Meyer sensitivity of π to
	// transition-probability perturbations: robust schedules keep it
	// small.
	ConditionNumber float64
	// MeanExposure is the per-PoI expected exposure Ē_i (Eq. 3), in
	// steps.
	MeanExposure []float64
	// ExposureStdDev is the per-PoI standard deviation of the exposure
	// segment length, in steps.
	ExposureStdDev []float64
}

// AnalyzeOptions tunes Analyze.
type AnalyzeOptions struct {
	// MixingEps is the total-variation threshold (default 0.01).
	MixingEps float64
	// MixingMaxSteps bounds the mixing computation (default 100000).
	MixingMaxSteps int
}

// Analyze computes the ChainAnalysis of a transition matrix.
func Analyze(m *mat.Matrix, opts AnalyzeOptions) (*ChainAnalysis, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrNotStochastic)
	}
	if opts.MixingEps == 0 {
		opts.MixingEps = 0.01
	}
	if opts.MixingMaxSteps == 0 {
		opts.MixingMaxSteps = 100000
	}
	chain, err := New(m)
	if err != nil {
		return nil, err
	}
	sol, err := chain.Solve()
	if err != nil {
		return nil, err
	}
	slem, err := sol.SLEM(20000, 1e-10)
	if err != nil {
		return nil, err
	}
	mixing, err := chain.MixingTime(sol, opts.MixingEps, opts.MixingMaxSteps)
	if err != nil {
		return nil, err
	}
	moments, err := sol.Moments()
	if err != nil {
		return nil, err
	}
	kappa, err := sol.ConditionNumber()
	if err != nil {
		return nil, err
	}

	n := chain.M()
	analysis := &ChainAnalysis{
		SLEM:            slem,
		SpectralGap:     1 - slem,
		MixingTime:      mixing,
		EntropyRate:     sol.EntropyRate(),
		KemenyConstant:  sol.KemenyConstant(),
		ConditionNumber: kappa,
		MeanExposure:    make([]float64, n),
		ExposureStdDev:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		denom := 1 - m.At(i, i)
		if denom <= 0 {
			continue
		}
		var mean, second float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := m.At(i, j) / denom
			mean += w * moments.Mean.At(j, i)
			second += w * moments.Second.At(j, i)
		}
		analysis.MeanExposure[i] = mean
		if v := second - mean*mean; v > 0 {
			analysis.ExposureStdDev[i] = math.Sqrt(v)
		}
	}
	return analysis, nil
}
