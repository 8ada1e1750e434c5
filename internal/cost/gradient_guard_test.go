package cost

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestGradientAbsorbingRowGuard is the regression test for the exposure
// term's 1/(1 - p_ii) factor: a (numerically) absorbing row must surface
// ErrNotErgodic from the gradient assembly, exactly as Evaluate does,
// instead of dividing by zero and feeding NaN/Inf into the line search.
// The public entry points reject such chains before the gradient runs, so
// the test drives gradientInto directly with a doctored Solution — the
// "foreign Evaluation" case the guard exists for.
func TestGradientAbsorbingRowGuard(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	ws := m.NewWorkspace()
	p := randomErgodicP(rng.New(31), top.M())
	ev, err := m.EvaluateIn(ws, p)
	if err != nil {
		t.Fatalf("EvaluateIn: %v", err)
	}
	if ev.EBarI[0] == 0 {
		t.Fatal("test setup: exposure term inactive for state 0")
	}
	// Corrupt the solved matrix so state 0 is absorbing (p_00 = 1).
	n := top.M()
	for j := 0; j < n; j++ {
		ev.Sol.P.Set(0, j, 0)
	}
	ev.Sol.P.Set(0, 0, 1)
	grad, err := m.gradientInto(ws, ev)
	if !errors.Is(err, markov.ErrNotErgodic) {
		t.Fatalf("gradientInto on absorbing row: err = %v, want ErrNotErgodic", err)
	}
	if grad != nil {
		t.Error("gradientInto returned a gradient alongside the error")
	}
}

// TestGradientNearAbsorbingRowFinite covers the other side of the guard:
// p_ii just below 1 is a legitimate (if extreme) ergodic iterate, and the
// gradient must come back finite — large, but never NaN or ±Inf.
func TestGradientNearAbsorbingRowFinite(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	n := top.M()
	for _, slack := range []float64{1e-6, 1e-9, 1e-12} {
		p := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Set(i, j, 1/float64(n))
			}
		}
		// Push row 0 to the brink of absorption: p_00 = 1 - slack.
		p.Set(0, 0, 1-slack)
		for j := 1; j < n; j++ {
			p.Set(0, j, slack/float64(n-1))
		}
		_, grad, err := m.GradientIn(m.NewWorkspace(), p)
		if err != nil {
			t.Fatalf("slack %g: Gradient: %v", slack, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g := grad.At(i, j); math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("slack %g: grad[%d][%d] = %v", slack, i, j, g)
				}
			}
		}
	}
}
