package cost_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
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
// descent reached from it, and two-cluster chains coupled only through
// floor entries of 1e-4 and 1e-7.
func lineFixtures(t *testing.T) []lineFixture {
	t.Helper()
	small := randomField(t, 16, 1, 1)
	field := randomField(t, 64, 1, 0.01)
	warm := flooredMetropolis(t, field)
	opt, err := descent.New(field, descent.Options{
		Variant: descent.Perturbed, MaxIters: 8, Seed: 1, Initial: []*mat.Matrix{warm},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return []lineFixture{
		{"random", small, descent.RandomInit(rng.New(3), 16, descent.DefaultMinProb), 1e-12},
		{"metropolis-field", field, warm, 1e-12},
		{"descended-field", field, res.P, 1e-12},
		{"clusters-floor-1e-4", small, twoClusters(16, 1e-4, 5), 1e-10},
		{"clusters-floor-1e-7", small, twoClusters(16, 1e-7, 6), 1e-7},
	}
}

// lineProbeUTol bounds the relative disagreement of a probe's U with a
// direct evaluation of the same matrix.
const lineProbeUTol = 1e-8

// searchDirection returns the projected steepest-descent direction of
// model at p and the largest step that keeps P + δD inside the floor box.
func searchDirection(t *testing.T, model *cost.Model, p *mat.Matrix) (*mat.Matrix, float64) {
	t.Helper()
	_, g, err := model.Gradient(p)
	if err != nil {
		t.Fatal(err)
	}
	d := cost.Project(g)
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
// every probe of the line search's grid, π from the line's shifted
// Hessenberg solve matches the dense stationary solve of the same matrix
// within the fixture's bound, U matches a direct evaluation within
// lineProbeUTol, and the two paths fail on exactly the same probes. The
// line is built from both the dense and the sparse fundamental stage.
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
				line := markov.NewLine(n)
				if err := line.Reset(sol, dir); err != nil {
					t.Fatal(err)
				}

				direct, probe := markov.NewSolver(n), markov.NewSolver(n)
				wsDirect, wsProbe := fx.model.NewWorkspace(), fx.model.NewWorkspace()
				cand := mat.New(n, n)
				var worstPi, worstU float64
				failures := 0
				for _, delta := range probeDeltas(bound) {
					if err := cand.CopyFrom(fx.p); err != nil {
						t.Fatal(err)
					}
					if err := mat.AddInPlace(cand, delta, dir); err != nil {
						t.Fatal(err)
					}
					want, errD := direct.SolveStationary(cand)
					got, errL := probe.SolveLine(line, cand, delta)
					if (errD == nil) != (errL == nil) {
						t.Fatalf("δ=%g: direct err %v, line err %v", delta, errD, errL)
					}
					if errD != nil {
						failures++
						continue
					}
					for i, w := range want.Pi {
						worstPi = max(worstPi, math.Abs(got.Pi[i]-w)/w)
					}
					evD, err := fx.model.EvaluateIn(wsDirect, cand)
					if err != nil {
						t.Fatal(err)
					}
					evL, err := fx.model.ProbeIn(wsProbe, line, cand, delta)
					if err != nil {
						t.Fatal(err)
					}
					worstU = max(worstU, math.Abs(evL.U-evD.U)/math.Abs(evD.U))
				}
				if failures == 0 {
					t.Fatal("no probe past the bound failed")
				}
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

// TestProbeSkipsZeroWeightExtensions checks that a probe leaves the
// energy and entropy rate at zero when their weights are, and computes
// them like a direct evaluation when they are not.
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
		line := markov.NewLine(m)
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
		got, err := model.ProbeIn(ws, line, cand, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !ext {
			if got.Energy != 0 || got.Entropy != 0 || got.EnergyTerm != 0 || got.EntropyTerm != 0 {
				t.Errorf("zero-weight probe computed D = %v, H = %v", got.Energy, got.Entropy)
			}
			continue
		}
		for name, pair := range map[string][2]float64{
			"energy":  {got.Energy, want.Energy},
			"entropy": {got.Entropy, want.Entropy},
			"U":       {got.U, want.U},
		} {
			if d := math.Abs(pair[0]-pair[1]) / math.Abs(pair[1]); d > lineProbeUTol {
				t.Errorf("%s: probe %v, direct %v", name, pair[0], pair[1])
			}
		}
	}
}
