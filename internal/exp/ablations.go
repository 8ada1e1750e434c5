package exp

import (
	"fmt"

	"repro/internal/descent"
	"repro/internal/mat"
	"repro/internal/stats"
	"repro/internal/topology"
)

// AblationStepSize compares fixed time steps against the adaptive line
// search under the same iteration budget (Topology 3, α=1, β=1),
// quantifying the paper's claim (iv) that estimated optimal steps speed
// up convergence.
func AblationStepSize(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology3()
	model, err := newModel(top, 1, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation A1: final cost after equal iteration budgets (Topology 3, α=1, β=1)",
		Columns: []string{"step policy", "final U", "iterations"},
	}
	init := descent.UniformInit(top.M())
	for _, step := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
		res, err := run(model, descent.Options{
			Variant:    descent.Basic,
			MaxIters:   sc.OptIters,
			FixedStep:  step,
			Initial:    []*mat.Matrix{init},
			StallIters: sc.OptIters + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("exp: ablation step %v: %w", step, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("fixed Δt=%g", step),
			FormatFloat(res.Eval.U),
			fmt.Sprintf("%d", res.Iters),
		})
	}
	adOpts := optimizerOptions(descent.Adaptive, sc, sc.Seed)
	adOpts.Initial = []*mat.Matrix{init}
	res, err := run(model, adOpts)
	if err != nil {
		return nil, fmt.Errorf("exp: ablation adaptive: %w", err)
	}
	t.Rows = append(t.Rows, []string{
		"adaptive (V3)",
		FormatFloat(res.Eval.U),
		fmt.Sprintf("%d", res.Iters),
	})
	return t, nil
}

// AblationNoise sweeps the V4 noise σ and reports the spread of final
// costs across random starts (Topology 1, α=0, β=1): too little noise
// leaves runs trapped in different local optima (wide spread), enough
// noise collapses the spread onto the global optimum.
func AblationNoise(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	model, err := newModel(top, 0, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation A2: perturbation noise σ vs final-cost spread (Topology 1, α=0, β=1)",
		Columns: []string{"σ", "min U", "avg U", "max U", "spread"},
	}
	for _, sigma := range []float64{0.001, 0.02, 0.1, 0.5} {
		opts := optimizerOptions(descent.Perturbed, sc, sc.Seed)
		opts.NoiseStdDev = sigma
		results, err := runSeeds(model, opts, sc.Runs)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation noise %v: %w", sigma, err)
		}
		us := make([]float64, len(results))
		for i, r := range results {
			us[i] = r.Eval.U
		}
		sum, err := stats.Summarize(us)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			FormatFloat(sigma),
			FormatFloat(sum.Min), FormatFloat(sum.Mean), FormatFloat(sum.Max),
			FormatFloat(sum.Max - sum.Min),
		})
	}
	return t, nil
}

// AblationWarmStart quantifies the README recommendation: on the 9-PoI
// Topology 4, seeding the perturbed search with the Metropolis–Hastings
// baseline reaches far better optima than cold random starts under the
// same iteration budget.
func AblationWarmStart(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology4()
	model, err := newModel(top, 1, 1e-5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation A3: cold vs warm start on the 9-PoI grid (Topology 4, α=1, β=1e-5)",
		Columns: []string{"initialization", "final U", "ΔC"},
	}
	cold := optimizerOptions(descent.Perturbed, sc, sc.Seed+800)
	coldRes, err := run(model, cold)
	if err != nil {
		return nil, fmt.Errorf("exp: warm-start ablation cold: %w", err)
	}
	warmP, err := baselineMatrix(top)
	if err != nil {
		return nil, err
	}
	warm := optimizerOptions(descent.Perturbed, sc, sc.Seed+800)
	warm.Initial = []*mat.Matrix{warmP}
	warmRes, err := run(model, warm)
	if err != nil {
		return nil, fmt.Errorf("exp: warm-start ablation warm: %w", err)
	}
	t.Rows = append(t.Rows,
		[]string{"cold (random, V2)", FormatFloat(coldRes.Eval.U), FormatFloat(coldRes.Eval.DeltaC)},
		[]string{"warm (Metropolis–Hastings)", FormatFloat(warmRes.Eval.U), FormatFloat(warmRes.Eval.DeltaC)},
	)
	return t, nil
}

// ExtensionEnergy demonstrates the §VII energy objective: sweeping the
// energy weight trades target-coverage fidelity against mean travel
// distance per transition.
func ExtensionEnergy(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	t := &Table{
		Title:   "Extension E1: energy-aware optimization (Topology 1, α=1, β=0, energy target γ=0)",
		Columns: []string{"energy weight", "ΔC", "mean travel D"},
	}
	for i, w := range []float64{0, 0.1, 1, 10} {
		weights := costUniform(top.M(), 1, 0)
		weights.EnergyWeight = w
		weights.EnergyTarget = 0
		model, err := newCustomModel(top, weights)
		if err != nil {
			return nil, err
		}
		opts := optimizerOptions(descent.Perturbed, sc, sc.Seed+uint64(300+i))
		res, err := run(model, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: extension energy %v: %w", w, err)
		}
		ev, err := model.Evaluate(res.P)
		if err != nil {
			return nil, fmt.Errorf("exp: extension energy %v: %w", w, err)
		}
		t.Rows = append(t.Rows, []string{
			FormatFloat(w), FormatFloat(res.Eval.DeltaC), FormatFloat(ev.Energy),
		})
	}
	return t, nil
}

// ExtensionEntropy demonstrates the §VII entropy objective: increasing
// the entropy weight raises the chain's entropy rate at bounded cost in
// the primary objectives.
func ExtensionEntropy(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	t := &Table{
		Title:   "Extension E2: entropy-augmented optimization (Topology 1, α=1, β=0.0001)",
		Columns: []string{"entropy weight λ", "entropy H", "ΔC", "Ē"},
	}
	for i, lam := range []float64{0, 0.01, 0.1, 1} {
		weights := costUniform(top.M(), 1, 1e-4)
		weights.EntropyWeight = lam
		model, err := newCustomModel(top, weights)
		if err != nil {
			return nil, err
		}
		opts := optimizerOptions(descent.Perturbed, sc, sc.Seed+uint64(400+i))
		res, err := run(model, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: extension entropy %v: %w", lam, err)
		}
		ev, err := model.Evaluate(res.P)
		if err != nil {
			return nil, fmt.Errorf("exp: extension entropy %v: %w", lam, err)
		}
		t.Rows = append(t.Rows, []string{
			FormatFloat(lam), FormatFloat(ev.Entropy),
			FormatFloat(res.Eval.DeltaC), FormatFloat(res.Eval.EBar),
		})
	}
	return t, nil
}
