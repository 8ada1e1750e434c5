package exp

import (
	"fmt"

	"repro/coverage"
	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// weightRatio is one α:β configuration of a sweep.
type weightRatio struct {
	label string
	alpha float64
	beta  float64
}

// tradeoffRatios is the α:β sweep of Tables I and II.
var tradeoffRatios = []weightRatio{
	{"0:1", 0, 1},
	{"1:1", 1, 1},
	{"1:0.01", 1, 0.01},
	{"1:0.0001", 1, 1e-4},
	{"1:0.000001", 1, 1e-6},
	{"1:0", 1, 0},
}

// tableIVRatios is the α:β sweep of Table IV.
var tableIVRatios = []weightRatio{
	{"0:1", 0, 1},
	{"1:1", 1, 1},
	{"1:0.0001", 1, 1e-4},
	{"1:0", 1, 0},
}

// newModel builds the uniform-weight cost model the paper evaluates
// (α_i = α, β_i = β, ε = 1e-4).
func newModel(top *topology.Topology, alpha, beta float64) (*cost.Model, error) {
	return cost.NewModel(top, cost.Uniform(top.M(), alpha, beta))
}

// costUniform and newCustomModel are thin aliases so extension
// experiments can adjust the §VII weights before building the model.
func costUniform(m int, alpha, beta float64) cost.Weights {
	return cost.Uniform(m, alpha, beta)
}

func newCustomModel(top *topology.Topology, w cost.Weights) (*cost.Model, error) {
	return cost.NewModel(top, w)
}

// optimizerOptions returns the descent configuration used throughout the
// harness for the given variant and scale.
func optimizerOptions(variant descent.Variant, sc Scale, seed uint64) descent.Options {
	opts := descent.Options{
		Variant:  variant,
		MaxIters: sc.OptIters,
		Seed:     seed,
	}
	switch variant {
	case descent.Adaptive:
		// Let the local-optimum detector actually fire: the paper's
		// adaptive algorithm terminates at Δt* = 0.
		opts.Tolerance = 1e-5
		opts.StallIters = maxInt(30, sc.OptIters/20)
	case descent.Perturbed:
		opts.Tolerance = 1e-7
		opts.StallIters = maxInt(100, sc.OptIters/3)
	case descent.Basic:
		opts.StallIters = sc.OptIters + 1 // run the full budget
	}
	return opts
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// result is the outcome of one descent on the joint objective.
type result = descent.Result[*fleet.Evaluation]

// run searches model's cost as the K = 1 case of the joint fleet
// objective, the objective every descent runs on. The result's Eval has
// the cost and the paper's two metrics; evaluate res.P on the model for
// the rest of the breakdown.
func run(model *cost.Model, opts descent.Options) (*result, error) {
	fm, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		return nil, err
	}
	opt, err := descent.NewOptimizer(fm, opts)
	if err != nil {
		return nil, err
	}
	return opt.Run()
}

// runSeeds runs n searches one after another, with the per-run seeds
// split from opts.Seed as a best-of search splits them
// (coverage.SplitSeeds).
func runSeeds(model *cost.Model, opts descent.Options, n int) ([]*result, error) {
	out := make([]*result, n)
	for i, seed := range coverage.SplitSeeds(opts.Seed, n) {
		o := opts
		o.Seed = seed
		res, err := run(model, o)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// optimize runs one optimization and returns the result.
func optimize(top *topology.Topology, alpha, beta float64, variant descent.Variant, sc Scale, seed uint64) (*result, error) {
	model, err := newModel(top, alpha, beta)
	if err != nil {
		return nil, err
	}
	return run(model, optimizerOptions(variant, sc, seed))
}

// simulateMatrix runs sc.SimReps simulations of the matrix and returns
// summaries of the measured ΔC and Ē.
func simulateMatrix(top *topology.Topology, p *mat.Matrix, sc Scale, seed uint64, model sim.TimeModel) (deltaC, eBar stats.Summary, err error) {
	runs, err := sim.RunMany(sim.Config{
		Topology:  top,
		P:         p,
		Steps:     sc.SimSteps,
		Seed:      seed,
		TimeModel: model,
	}, sc.SimReps)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	dcs := make([]float64, len(runs))
	ebs := make([]float64, len(runs))
	for i, r := range runs {
		dcs[i] = r.DeltaC
		ebs[i] = r.EBar
	}
	deltaC, err = stats.Summarize(dcs)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	eBar, err = stats.Summarize(ebs)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	return deltaC, eBar, nil
}

// TradeoffResult is one row of the Tables I/II sweep.
type TradeoffResult struct {
	Ratio string
	Eval  *cost.Evaluation
}

// TradeoffSweep optimizes Topology 3 with the perturbed algorithm for
// every α:β ratio of Tables I and II and returns the converged
// evaluations.
func TradeoffSweep(sc Scale) ([]TradeoffResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology3()
	out := make([]TradeoffResult, 0, len(tradeoffRatios))
	for i, r := range tradeoffRatios {
		model, err := newModel(top, r.alpha, r.beta)
		if err != nil {
			return nil, err
		}
		res, err := run(model, optimizerOptions(descent.Perturbed, sc, sc.Seed+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("exp: sweep %s: %w", r.label, err)
		}
		ev, err := model.Evaluate(res.P)
		if err != nil {
			return nil, fmt.Errorf("exp: sweep %s: %w", r.label, err)
		}
		out = append(out, TradeoffResult{Ratio: r.label, Eval: ev})
	}
	return out, nil
}

// TableI reports the achieved coverage-time distribution C̄_i per α:β
// ratio (paper Table I, Topology 3).
func TableI(sc Scale) (*Table, error) {
	sweep, err := TradeoffSweep(sc)
	if err != nil {
		return nil, err
	}
	return tableFromSweep("Table I: C̄_i per α:β (Topology 3)", sweep, func(ev *cost.Evaluation) []float64 {
		return ev.CBar
	}), nil
}

// TableII reports the per-PoI mean exposure times Ē_i per α:β ratio
// (paper Table II, Topology 3).
func TableII(sc Scale) (*Table, error) {
	sweep, err := TradeoffSweep(sc)
	if err != nil {
		return nil, err
	}
	return tableFromSweep("Table II: Ē_i per α:β (Topology 3)", sweep, func(ev *cost.Evaluation) []float64 {
		return ev.EBarI
	}), nil
}

// tableFromSweep renders one per-PoI vector per sweep row.
func tableFromSweep(title string, sweep []TradeoffResult, pick func(*cost.Evaluation) []float64) *Table {
	if len(sweep) == 0 {
		return &Table{Title: title}
	}
	m := len(pick(sweep[0].Eval))
	cols := make([]string, 0, m+1)
	cols = append(cols, "α:β")
	for i := 1; i <= m; i++ {
		cols = append(cols, fmt.Sprintf("PoI %d", i))
	}
	t := &Table{Title: title, Columns: cols}
	for _, row := range sweep {
		cells := make([]string, 0, m+1)
		cells = append(cells, row.Ratio)
		for _, v := range pick(row.Eval) {
			cells = append(cells, FormatFloat(v))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// TableIII compares the distribution of best costs reached by the
// adaptive and perturbed algorithms over sc.Runs random starts (paper
// Table III: Topology 1, α=0, β=1).
func TableIII(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	model, err := newModel(top, 0, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table III: best cost over runs (Topology 1, α=0, β=1)",
		Columns: []string{"algorithm", "min", "avg", "max"},
	}
	for _, variant := range []descent.Variant{descent.Adaptive, descent.Perturbed} {
		results, err := runSeeds(model, optimizerOptions(variant, sc, sc.Seed), sc.Runs)
		if err != nil {
			return nil, fmt.Errorf("exp: table III %s: %w", variant, err)
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
			variant.String(),
			FormatFloat(sum.Min), FormatFloat(sum.Mean), FormatFloat(sum.Max),
		})
	}
	return t, nil
}

// TableIV drives Markov simulations with the converged matrices and
// reports the measured ΔC and Ē per α:β ratio (paper Table IV,
// Topology 1).
func TableIV(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology1()
	t := &Table{
		Title:   "Table IV: measured ΔC and Ē per α:β (Topology 1, simulated)",
		Columns: []string{"α:β", "ΔC", "Ē"},
	}
	for i, r := range tableIVRatios {
		res, err := optimize(top, r.alpha, r.beta, descent.Perturbed, sc, sc.Seed+uint64(100+i))
		if err != nil {
			return nil, fmt.Errorf("exp: table IV %s: %w", r.label, err)
		}
		dc, eb, err := simulateMatrix(top, res.P, sc, sc.Seed+uint64(200+i), sim.UnitStep)
		if err != nil {
			return nil, fmt.Errorf("exp: table IV %s: %w", r.label, err)
		}
		t.Rows = append(t.Rows, []string{r.label, FormatFloat(dc.Mean), FormatFloat(eb.Mean)})
	}
	return t, nil
}

// BaselineMCMC compares a Metropolis–Hastings chain targeting Φ against
// the perturbed steepest-descent solution under the full cost model
// (Topology 3, α=1, β=1) — the comparison motivating §II.
func BaselineMCMC(sc Scale) (*Table, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology3()
	model, err := newModel(top, 1, 1)
	if err != nil {
		return nil, err
	}
	res, err := optimize(top, 1, 1, descent.Perturbed, sc, sc.Seed+999)
	if err != nil {
		return nil, err
	}
	mhP, err := baselineMatrix(top)
	if err != nil {
		return nil, err
	}
	mhEval, err := model.Evaluate(mhP)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Baseline: Metropolis–Hastings vs steepest descent (Topology 3, α=1, β=1)",
		Columns: []string{"chain", "ΔC", "Ē", "U"},
	}
	t.Rows = append(t.Rows,
		[]string{"metropolis-hastings", FormatFloat(mhEval.DeltaC), FormatFloat(mhEval.EBar), FormatFloat(mhEval.U)},
		[]string{"steepest-descent", FormatFloat(res.Eval.DeltaC), FormatFloat(res.Eval.EBar), FormatFloat(res.Eval.U)},
	)
	return t, nil
}
