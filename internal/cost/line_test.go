package cost_test

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"repro/coverage"
	"repro/internal/conformance"
	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/topology"
)

// lineFixture is one base point of the line-probe oracle: a model, a
// chain P at which the search line starts, and the π agreement bound
// its conditioning allows.
type lineFixture struct {
	name  string
	model *cost.Model
	p     *mat.Matrix
	piTol float64
}

// randomField builds the M-PoI random-geometric field of the benchmarks
// with uniform weights α and β.
func randomField(t *testing.T, m int, alpha, beta float64) *cost.Model {
	t.Helper()
	top, err := topology.Random(rng.New(uint64(m)), topology.RandomConfig{
		M: m, Width: 40 * float64(m), Height: 40 * float64(m),
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := cost.NewModel(top, cost.Uniform(m, alpha, beta))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// flooredMetropolis is the model's Metropolis baseline with every entry
// lifted to the descent's floor and the rows renormalized: the warm
// start of a descent from the baseline.
func flooredMetropolis(t *testing.T, model *cost.Model) *mat.Matrix {
	t.Helper()
	p, err := mcmc.MetropolisHastings(model.Topology().Target())
	if err != nil {
		t.Fatal(err)
	}
	n := p.Rows()
	d := p.Data()
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		var sum float64
		for j := range row {
			row[j] = max(row[j], descent.DefaultMinProb)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return p
}

// twoClusters returns a chain of two equal clusters with random positive
// transitions inside each and every transition between them at floor,
// rows renormalized: a nearly decomposable chain whose π is as
// ill-conditioned as the floor is small.
func twoClusters(m int, floor float64, seed uint64) *mat.Matrix {
	src := rng.New(seed)
	p := mat.New(m, m)
	d := p.Data()
	half := m / 2
	for i := 0; i < m; i++ {
		row := d[i*m : (i+1)*m]
		var sum float64
		for j := range row {
			if (i < half) == (j < half) {
				row[j] = 0.1 + src.Float64()
			} else {
				row[j] = floor
			}
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return p
}

// lineFixtures are the base points of the oracle: a random start, the
// floored Metropolis warm start of the 64-PoI field, an iterate the
// descent reached from it, two-cluster chains coupled only through floor
// entries of 1e-4 and 1e-7, a random start under energy and entropy
// weights, and a random start of one scenario per conformance/v1 family
// under that family's objectives (corpusFixtures).
func lineFixtures(t *testing.T) []lineFixture {
	t.Helper()
	small := randomField(t, 16, 1, 1)
	field := randomField(t, 64, 1, 0.01)
	warm := flooredMetropolis(t, field)
	fm, err := fleet.NewModel(field, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := descent.NewOptimizer(fm, descent.Options{
		Variant: descent.Perturbed, MaxIters: 8, Seed: 1, Initial: []*mat.Matrix{warm},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	top := topology.Topology3()
	w := cost.Uniform(top.M(), 1, 0.1)
	w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = 0.5, 0.3, 0.05
	extended, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatal(err)
	}
	fxs := []lineFixture{
		{"random", small, descent.RandomInit(rng.New(3), 16, descent.DefaultMinProb), 1e-12},
		{"metropolis-field", field, warm, 1e-12},
		{"descended-field", field, res.P, 1e-12},
		{"clusters-floor-1e-4", small, twoClusters(16, 1e-4, 5), 1e-10},
		{"clusters-floor-1e-7", small, twoClusters(16, 1e-7, 6), 1e-7},
		{"entropy-energy", extended, descent.RandomInit(rng.New(2), top.M(), descent.DefaultMinProb), 1e-12},
	}
	for i, c := range corpusFixtures(t) {
		m := c.model.Topology().M()
		p := descent.RandomInit(rng.New(uint64(100+i)), m, descent.DefaultMinProb)
		fxs = append(fxs, lineFixture{"corpus-" + c.name, c.model, p, 1e-12})
	}
	return fxs
}

// corpusModel is one conformance/v1 family's representative: the name
// of its case and the single-sensor cost model of its scenario under its
// objectives.
type corpusModel struct {
	name  string
	model *cost.Model
}

// corpusFixtures loads the conformance/v1 corpus and returns one case per
// family: the one with the most PoIs, an obstacle case first. The cost
// model is built the way the coverage facade builds it (package
// defaults for range, speed and pause; uniform α and β; the energy
// weights). A case using an objective this helper does not translate
// fails the test rather than being approximated.
func corpusFixtures(t *testing.T) []corpusModel {
	t.Helper()
	corpora, err := conformance.LoadDir("../../coverage/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var out []corpusModel
	for _, c := range corpora {
		best := c.Cases[0]
		for _, cs := range c.Cases[1:] {
			if len(cs.Scenario.Obstacles) > len(best.Scenario.Obstacles) ||
				len(cs.Scenario.Obstacles) == len(best.Scenario.Obstacles) && len(cs.Scenario.PoIs) > len(best.Scenario.PoIs) {
				best = cs
			}
		}
		out = append(out, corpusModel{c.Family + "/" + best.Name, corpusCostModel(t, best.Scenario, best.Objectives)})
	}
	return out
}

// corpusCostModel builds the cost model of a corpus scenario.
func corpusCostModel(t *testing.T, scn coverage.Scenario, obj coverage.Objectives) *cost.Model {
	t.Helper()
	if obj.PerPoIAlpha != nil || obj.PerPoIBeta != nil || obj.Epsilon != 0 || obj.EntropyWeight != 0 {
		t.Fatalf("%s: objectives %+v not translated", scn.Name, obj)
	}
	pois := make([]topology.PoI, len(scn.PoIs))
	for i, p := range scn.PoIs {
		pois[i] = topology.PoI{Pos: geom.Point{X: p.X, Y: p.Y}, Pause: cmp.Or(p.Pause, coverage.DefaultPause)}
	}
	cfg := topology.Config{
		Name: scn.Name, PoIs: pois, Target: scn.Target,
		Range: cmp.Or(scn.Range, coverage.DefaultRange),
		Speed: cmp.Or(scn.Speed, coverage.DefaultSpeed),
	}
	if len(scn.Obstacles) > 0 {
		rects := make([]route.Rect, len(scn.Obstacles))
		for i, o := range scn.Obstacles {
			rects[i] = route.Rect{MinX: o.MinX, MinY: o.MinY, MaxX: o.MaxX, MaxY: o.MaxY}
		}
		planner, err := route.New(rects, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Router = planner
	}
	top, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := cost.Uniform(top.M(), obj.Alpha, obj.Beta)
	w.EnergyWeight, w.EnergyTarget = obj.EnergyWeight, obj.EnergyTarget
	model, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// lineProbeUTol bounds the relative disagreement of a probe's U with a
// direct evaluation of the same matrix.
const lineProbeUTol = 1e-8

// searchDirection returns the projected steepest-descent direction of
// model at p and the largest step that keeps P + δD inside the floor box.
func searchDirection(t *testing.T, model *cost.Model, p *mat.Matrix) (*mat.Matrix, float64) {
	t.Helper()
	_, g, err := model.GradientIn(model.NewWorkspace(), p)
	if err != nil {
		t.Fatal(err)
	}
	d := mat.New(g.Rows(), g.Cols())
	cost.ProjectTo(d, g)
	mat.ScaleInPlace(-1, d)
	bound := math.Inf(1)
	pd := p.Data()
	for i, v := range d.Data() {
		switch {
		case v > 0:
			bound = min(bound, (1-descent.DefaultMinProb-pd[i])/v)
		case v < 0:
			bound = min(bound, (descent.DefaultMinProb-pd[i])/v)
		}
	}
	return d, bound
}

// probeDeltas is the line search's geometric grid δ = bound/4^k plus the
// thirds of its first cells, and two steps past the bound, where
// entries go negative and both paths must fail.
func probeDeltas(bound float64) []float64 {
	var ds []float64
	for k, d := 0, bound; k < 24; k, d = k+1, d/4 {
		ds = append(ds, d, d*(1-1.0/3), d*(1-2.0/3))
	}
	return append(ds, 1.5*bound, 3*bound)
}

// TestLineProbeMatchesDirectSolve is the oracle of the line layer: at
// every probe of the line search's grid, a probe on a cost.Line (π from
// the line's shifted Hessenberg solve, CoverTime, TotalTime and the
// energy from its affine tables) matches a direct evaluation of the same
// matrix: π within the fixture's bound, U within lineProbeUTol, the
// barrier bit for bit (the probe scans only the line's edge entries),
// and the two paths fail on exactly the same probes. The line is built from both
// the dense and the sparse fundamental stage.
func TestLineProbeMatchesDirectSolve(t *testing.T) {
	for _, fx := range lineFixtures(t) {
		for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
			t.Run(fmt.Sprintf("%s/%v", fx.name, method), func(t *testing.T) {
				n := fx.p.Rows()
				dir, bound := searchDirection(t, fx.model, fx.p)
				base := markov.NewSolver(n)
				base.SetMethod(method)
				sol, err := base.SolveStationary(fx.p)
				if err != nil {
					t.Fatal(err)
				}
				line := fx.model.NewLine()
				if err := line.Reset(sol, dir); err != nil {
					t.Fatal(err)
				}

				wsDirect, wsProbe := fx.model.NewWorkspace(), fx.model.NewWorkspace()
				cand := mat.New(n, n)
				var worstPi, worstU float64
				failures, barriers := 0, 0
				for _, delta := range probeDeltas(bound) {
					if err := cand.CopyFrom(fx.p); err != nil {
						t.Fatal(err)
					}
					if err := mat.AddInPlace(cand, delta, dir); err != nil {
						t.Fatal(err)
					}
					evD, errD := fx.model.EvaluateIn(wsDirect, cand)
					evL, errL := fx.model.ProbeIn(wsProbe, line, delta)
					if (errD == nil) != (errL == nil) {
						t.Fatalf("δ=%g: direct err %v, line err %v", delta, errD, errL)
					}
					if errD != nil {
						failures++
						continue
					}
					for i, w := range evD.Sol.Pi {
						worstPi = max(worstPi, math.Abs(evL.Sol.Pi[i]-w)/w)
					}
					worstU = max(worstU, math.Abs(evL.U-evD.U)/math.Abs(evD.U))
					if math.Float64bits(evL.Penalty) != math.Float64bits(evD.Penalty) {
						t.Errorf("δ=%g: probe barrier %v, direct %v", delta, evL.Penalty, evD.Penalty)
					}
					if evD.Penalty != 0 {
						barriers++
					}
				}
				if failures == 0 {
					t.Fatal("no probe past the bound failed")
				}
				t.Logf("%d probes with a nonzero barrier", barriers)
				if worstPi > fx.piTol {
					t.Errorf("max relative π error %.3g, want ≤ %.0e", worstPi, fx.piTol)
				}
				if worstU > lineProbeUTol {
					t.Errorf("max relative U error %.3g, want ≤ %.0e", worstU, lineProbeUTol)
				}
				t.Logf("max relative error: π %.2g, U %.2g", worstPi, worstU)
			})
		}
	}
}

// TestFleetProbeMatchesEvaluate is the oracle one layer up: for every
// corpus family's scenario as a K = 2 fleet, at every probe of the line
// search's grid along the joint steepest-descent direction, State.Probe
// matches State.Evaluate of the same stack within lineProbeUTol, and the
// two fail on exactly the same probes, dense and sparse.
func TestFleetProbeMatchesEvaluate(t *testing.T) {
	for i, c := range corpusFixtures(t) {
		for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
			t.Run(fmt.Sprintf("%s/%v", c.name, method), func(t *testing.T) {
				fm, err := fleet.NewModel(c.model, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				m := c.model.Topology().M()
				src := rng.New(uint64(200 + i))
				ps := []*mat.Matrix{
					descent.RandomInit(src, m, descent.DefaultMinProb),
					descent.RandomInit(src, m, descent.DefaultMinProb),
				}
				st, direct := fm.NewState(method), fm.NewState(method)
				if _, err := st.Evaluate(ps); err != nil {
					t.Fatal(err)
				}
				grads := []*mat.Matrix{mat.New(m, m), mat.New(m, m)}
				if err := st.Gradient(grads); err != nil {
					t.Fatal(err)
				}
				bound := math.Inf(1)
				for s, g := range grads {
					cost.ProjectTo(g, g)
					mat.ScaleInPlace(-1, g)
					pd := ps[s].Data()
					for k, v := range g.Data() {
						switch {
						case v > 0:
							bound = min(bound, (1-descent.DefaultMinProb-pd[k])/v)
						case v < 0:
							bound = min(bound, (descent.DefaultMinProb-pd[k])/v)
						}
					}
				}
				if err := st.Line(grads); err != nil {
					t.Fatal(err)
				}
				cand := []*mat.Matrix{mat.New(m, m), mat.New(m, m)}
				var worstU float64
				failures := 0
				for _, delta := range probeDeltas(bound) {
					for s := range cand {
						if err := cand[s].CopyFrom(ps[s]); err != nil {
							t.Fatal(err)
						}
						if err := mat.AddInPlace(cand[s], delta, grads[s]); err != nil {
							t.Fatal(err)
						}
					}
					uD, errD := direct.Evaluate(cand)
					uL, errL := st.Probe(delta)
					if (errD == nil) != (errL == nil) {
						t.Fatalf("δ=%g: direct err %v, probe err %v", delta, errD, errL)
					}
					if errD != nil {
						failures++
						continue
					}
					worstU = max(worstU, math.Abs(uL-uD)/math.Abs(uD))
				}
				if failures == 0 {
					t.Fatal("no probe past the bound failed")
				}
				if worstU > lineProbeUTol {
					t.Errorf("max relative U error %.3g, want ≤ %.0e", worstU, lineProbeUTol)
				}
				t.Logf("max relative U error %.2g", worstU)
			})
		}
	}
}

// keptState is a fleet objective that keeps the last state it hands
// out, so a test can read the state's counters after a descent run.
type keptState struct {
	*fleet.Model
	st *fleet.State
}

func (o *keptState) NewState(method markov.Method) *fleet.State {
	o.st = o.Model.NewState(method)
	return o.st
}

// TestCorpusSearchCertified runs one V3 iteration — a full line search
// from a floored random start — for every corpus family's scenario,
// dense and sparse, as a one-sensor and a two-sensor fleet, and
// requires every probe to lie in its line's certified range: none may
// scan its matrix again (markov.Solver.LineScans).
func TestCorpusSearchCertified(t *testing.T) {
	for i, c := range corpusFixtures(t) {
		for _, k := range []int{1, 2} {
			for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
				t.Run(fmt.Sprintf("%s/K%d/%v", c.name, k, method), func(t *testing.T) {
					fm, err := fleet.NewModel(c.model, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					obj := &keptState{Model: fm}
					opt, err := descent.NewOptimizer(obj, descent.Options{
						Variant: descent.Adaptive, MaxIters: 1, Seed: uint64(300 + i),
						Solver: method, RecordTrace: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					res, err := opt.Run()
					if err != nil {
						t.Fatal(err)
					}
					probes := res.Trace[0].Probes
					if probes == 0 {
						t.Fatal("the iteration ran no probe")
					}
					if n := obj.st.LineScans(); n != 0 {
						t.Errorf("%d of %d probes scanned their matrix, want 0", n, probes)
					}
				})
			}
		}
	}
}

// TestProbeSkipsZeroWeightExtensions checks that a probe leaves the
// entropy rate at zero when its weight is, and computes it like a direct
// evaluation when it is not. The energy, which the line tables make
// affine, is computed on every probe and agrees with a direct
// evaluation either way.
func TestProbeSkipsZeroWeightExtensions(t *testing.T) {
	top := topology.Topology3()
	m := top.M()
	p := descent.RandomInit(rng.New(2), m, descent.DefaultMinProb)
	for _, ext := range []bool{false, true} {
		w := cost.Uniform(m, 1, 0.1)
		if ext {
			w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = 0.5, 0.3, 0.05
		}
		model, err := cost.NewModel(top, w)
		if err != nil {
			t.Fatal(err)
		}
		dir, bound := searchDirection(t, model, p)
		ws := model.NewWorkspace()
		ev, err := model.EvaluateIn(ws, p)
		if err != nil {
			t.Fatal(err)
		}
		line := model.NewLine()
		if err := line.Reset(ev.Sol, dir); err != nil {
			t.Fatal(err)
		}
		delta := bound / 16
		cand := p.Clone()
		if err := mat.AddInPlace(cand, delta, dir); err != nil {
			t.Fatal(err)
		}
		want, err := model.Evaluate(cand)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.ProbeIn(ws, line, delta)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.Energy-want.Energy) / math.Abs(want.Energy); d > lineProbeUTol {
			t.Errorf("energy: probe %v, direct %v", got.Energy, want.Energy)
		}
		if !ext {
			if got.Entropy != 0 || got.EnergyTerm != 0 || got.EntropyTerm != 0 {
				t.Errorf("zero-weight probe computed H = %v, energy term %v", got.Entropy, got.EnergyTerm)
			}
			continue
		}
		for name, pair := range map[string][2]float64{
			"entropy": {got.Entropy, want.Entropy},
			"U":       {got.U, want.U},
		} {
			if d := math.Abs(pair[0]-pair[1]) / math.Abs(pair[1]); d > lineProbeUTol {
				t.Errorf("%s: probe %v, direct %v", name, pair[0], pair[1])
			}
		}
	}
}
