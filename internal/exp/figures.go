package exp

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// baselineMatrix builds the MCMC baseline chain targeting the topology's
// coverage allocation Φ. Mild laziness keeps every diagonal entry away
// from zero so the barrier-penalized cost stays finite and the comparison
// with the interior-point descent solutions is fair.
func baselineMatrix(top *topology.Topology) (*mat.Matrix, error) {
	return mcmc.LazyMetropolisHastings(top.Target(), 0.2)
}

// costCDF runs sc.Runs optimizations with the given variant and returns
// the empirical CDF of the achieved costs as a figure line.
func costCDF(top *topology.Topology, alpha, beta float64, variant descent.Variant, sc Scale) (Line, error) {
	model, err := newModel(top, alpha, beta)
	if err != nil {
		return Line{}, err
	}
	results, err := descent.RunMany(model, optimizerOptions(variant, sc, sc.Seed), sc.Runs)
	if err != nil {
		return Line{}, err
	}
	us := make([]float64, len(results))
	for i, r := range results {
		us[i] = r.Eval.U
	}
	pts, err := stats.CDF(us)
	if err != nil {
		return Line{}, err
	}
	ln := Line{Name: variant.String(), X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		ln.X[i] = p.Value
		ln.Y[i] = p.Fraction
	}
	return ln, nil
}

// Figure2 reproduces the CDFs of achieved cost U_ε for the adaptive vs
// perturbed algorithms on Topology 1: (a) α=0, β=1 and (b) α=1, β=1.
func Figure2(sc Scale) (*Figure, *Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	top := topology.Topology1()
	build := func(title string, alpha, beta float64) (*Figure, error) {
		fig := &Figure{Title: title, XLabel: "achieved cost U_ε", YLabel: "CDF"}
		for _, variant := range []descent.Variant{descent.Adaptive, descent.Perturbed} {
			ln, err := costCDF(top, alpha, beta, variant, sc)
			if err != nil {
				return nil, err
			}
			fig.Lines = append(fig.Lines, ln)
		}
		return fig, nil
	}
	a, err := build("Figure 2(a): CDF of achieved cost (α=0, β=1, Topology 1)", 0, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: figure 2a: %w", err)
	}
	b, err := build("Figure 2(b): CDF of achieved cost (α=1, β=1, Topology 1)", 1, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: figure 2b: %w", err)
	}
	return a, b, nil
}

// traceLine converts an optimizer trace into a sampled U-vs-iteration
// line.
func traceLine(name string, trace []descent.IterRecord, points int, pick func(descent.IterRecord) float64) Line {
	n := len(trace)
	ln := Line{Name: name}
	if n == 0 {
		return ln
	}
	stride := 1
	if n > points {
		stride = (n + points - 1) / points
	}
	for i := 0; i < n; i += stride {
		ln.X = append(ln.X, float64(trace[i].Iter))
		ln.Y = append(ln.Y, pick(trace[i]))
	}
	if (n-1)%stride != 0 {
		ln.X = append(ln.X, float64(trace[n-1].Iter))
		ln.Y = append(ln.Y, pick(trace[n-1]))
	}
	return ln
}

// runTraced runs one optimization with trace recording enabled. For the
// basic variant the fixed step is raised from the paper's Δt = 1e-6 to
// 1e-5: the paper's basic-algorithm figures span far more iterations than
// a Scale budget affords, and the larger step reproduces the same
// decrease-to-stability shape within it (the Δt sensitivity itself is
// quantified by AblationStepSize).
func runTraced(top *topology.Topology, alpha, beta float64, variant descent.Variant, sc Scale, seed uint64) (*descent.Result[*cost.Evaluation], error) {
	model, err := newModel(top, alpha, beta)
	if err != nil {
		return nil, err
	}
	opts := optimizerOptions(variant, sc, seed)
	opts.RecordTrace = true
	if variant == descent.Basic {
		opts.FixedStep = 1e-5
	}
	opt, err := descent.New(model, opts)
	if err != nil {
		return nil, err
	}
	return opt.Run()
}

// Figure3 reproduces U vs iteration for the basic algorithm under several
// α, β weightings (Topology 3).
func Figure3(sc Scale) (*Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	top := topology.Topology3()
	fig := &Figure{
		Title:  "Figure 3: basic algorithm, U vs iteration for α:β sweeps (Topology 3)",
		XLabel: "iteration", YLabel: "U",
	}
	for i, r := range []weightRatio{{"1:1", 1, 1}, {"1:0.01", 1, 0.01}, {"1:0.0001", 1, 1e-4}} {
		res, err := runTraced(top, r.alpha, r.beta, descent.Basic, sc, sc.Seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("exp: figure 3 %s: %w", r.label, err)
		}
		fig.Lines = append(fig.Lines, traceLine("α:β="+r.label, res.Trace, sc.TracePoints,
			func(rec descent.IterRecord) float64 { return rec.U }))
	}
	return fig, nil
}

// Figure4 reproduces U vs iteration for the basic algorithm with the
// exposure-only objective (α=0, β=1, Topology 1).
func Figure4(sc Scale) (*Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	res, err := runTraced(topology.Topology1(), 0, 1, descent.Basic, sc, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: figure 4: %w", err)
	}
	fig := &Figure{
		Title:  "Figure 4: basic algorithm, U vs iteration (α=0, β=1, Topology 1)",
		XLabel: "iteration", YLabel: "U",
	}
	fig.Lines = append(fig.Lines, traceLine("basic", res.Trace, sc.TracePoints,
		func(rec descent.IterRecord) float64 { return rec.U }))
	return fig, nil
}

// Figure5 reproduces (a) the basic algorithm's U vs iteration and (b) the
// perturbed algorithm from different random initializations
// (α=1, β=0, Topology 2).
func Figure5(sc Scale) (*Figure, *Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	top := topology.Topology2()
	resA, err := runTraced(top, 1, 0, descent.Basic, sc, sc.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: figure 5a: %w", err)
	}
	figA := &Figure{
		Title:  "Figure 5(a): basic algorithm, U vs iteration (α=1, β=0, Topology 2)",
		XLabel: "iteration", YLabel: "U",
	}
	figA.Lines = append(figA.Lines, traceLine("basic", resA.Trace, sc.TracePoints,
		func(rec descent.IterRecord) float64 { return rec.U }))

	figB := &Figure{
		Title:  "Figure 5(b): perturbed algorithm from different initial p_ij (α=1, β=0, Topology 2)",
		XLabel: "iteration", YLabel: "U",
	}
	for s := 0; s < 3; s++ {
		res, err := runTraced(top, 1, 0, descent.Perturbed, sc, sc.Seed+uint64(10+s))
		if err != nil {
			return nil, nil, fmt.Errorf("exp: figure 5b seed %d: %w", s, err)
		}
		figB.Lines = append(figB.Lines, traceLine(fmt.Sprintf("seed %d", s+1), res.Trace, sc.TracePoints,
			func(rec descent.IterRecord) float64 { return rec.U }))
	}
	return figA, figB, nil
}

// iterationSimFigures runs one traced optimization and, at sampled
// iterations, drives sc.SimReps Markov simulations with the
// current matrix; it returns ΔC and Ē (mean with p25/p75 companion lines)
// versus iteration — the harness behind Figs. 6, 7 and 8.
func iterationSimFigures(top *topology.Topology, alpha, beta float64, sc Scale, seed uint64, titlePrefix string) (*Figure, *Figure, *Figure, error) {
	model, err := newModel(top, alpha, beta)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := optimizerOptions(descent.Perturbed, sc, seed)
	opts.RecordTrace = true

	// Sample matrices at ~TracePoints evenly spaced iterations.
	stride := maxInt(1, sc.OptIters/sc.TracePoints)
	type sample struct {
		iter int
		p    *mat.Matrix
		u    float64
	}
	var samples []sample
	opts.OnIteration = func(rec descent.IterRecord, ps []*mat.Matrix) {
		if (rec.Iter-1)%stride == 0 {
			samples = append(samples, sample{iter: rec.Iter, p: ps[0].Clone(), u: rec.U})
		}
	}
	opt, err := descent.New(model, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := opt.Run(); err != nil {
		return nil, nil, nil, err
	}

	dcFig := &Figure{Title: titlePrefix + ": simulated ΔC vs iteration", XLabel: "iteration", YLabel: "ΔC"}
	ebFig := &Figure{Title: titlePrefix + ": simulated Ē vs iteration", XLabel: "iteration", YLabel: "Ē"}
	uFig := &Figure{Title: titlePrefix + ": computed U vs iteration", XLabel: "iteration", YLabel: "U"}
	var dcMean, dcP25, dcP75, ebMean, ebP25, ebP75, uLine Line
	dcMean.Name, dcP25.Name, dcP75.Name = "mean", "p25", "p75"
	ebMean.Name, ebP25.Name, ebP75.Name = "mean", "p25", "p75"
	uLine.Name = "steepest descent"
	for i, s := range samples {
		dc, eb, err := simulateMatrix(top, s.p, sc, seed+uint64(1000+i), sim.UnitStep)
		if err != nil {
			return nil, nil, nil, err
		}
		x := float64(s.iter)
		dcMean.X = append(dcMean.X, x)
		dcMean.Y = append(dcMean.Y, dc.Mean)
		dcP25.X = append(dcP25.X, x)
		dcP25.Y = append(dcP25.Y, dc.P25)
		dcP75.X = append(dcP75.X, x)
		dcP75.Y = append(dcP75.Y, dc.P75)
		ebMean.X = append(ebMean.X, x)
		ebMean.Y = append(ebMean.Y, eb.Mean)
		ebP25.X = append(ebP25.X, x)
		ebP25.Y = append(ebP25.Y, eb.P25)
		ebP75.X = append(ebP75.X, x)
		ebP75.Y = append(ebP75.Y, eb.P75)
		uLine.X = append(uLine.X, x)
		uLine.Y = append(uLine.Y, s.u)
	}
	dcFig.Lines = []Line{dcMean, dcP25, dcP75}
	ebFig.Lines = []Line{ebMean, ebP25, ebP75}
	uFig.Lines = []Line{uLine}
	return dcFig, ebFig, uFig, nil
}

// Figure6 reproduces the simulated ΔC and Ē per optimizer iteration on
// Topology 2 (α=1, β=0).
func Figure6(sc Scale) (*Figure, *Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	dc, eb, _, err := iterationSimFigures(topology.Topology2(), 1, 0, sc, sc.Seed+60, "Figure 6 (α=1, β=0, Topology 2)")
	if err != nil {
		return nil, nil, fmt.Errorf("exp: figure 6: %w", err)
	}
	return dc, eb, nil
}

// Figure7 repeats Figure 6 on the larger Topology 4.
func Figure7(sc Scale) (*Figure, *Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	dc, eb, _, err := iterationSimFigures(topology.Topology4(), 1, 0, sc, sc.Seed+70, "Figure 7 (α=1, β=0, Topology 4)")
	if err != nil {
		return nil, nil, fmt.Errorf("exp: figure 7: %w", err)
	}
	return dc, eb, nil
}

// Figure8 reproduces the simulated ΔC, Ē and computed U per iteration on
// Topology 1 with a small exposure weight (α=1, β=0.0001).
func Figure8(sc Scale) (*Figure, *Figure, *Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, nil, err
	}
	dc, eb, u, err := iterationSimFigures(topology.Topology1(), 1, 1e-4, sc, sc.Seed+80, "Figure 8 (α=1, β=0.0001, Topology 1)")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: figure 8: %w", err)
	}
	return dc, eb, u, nil
}
