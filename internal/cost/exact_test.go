package cost

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/topology"
)

// referenceEvaluate is the coverage fold evaluateInto shipped with before
// the cover-list numerator and the four-slot G fold: every transition
// with nonzero weight streams the full CoverRow into the numerator, and
// on the dense path the full at row into G, one slot at a time. The rest
// of the breakdown follows evaluateInto term for term, with the energy
// read through the At/Distance accessors. It is the bit oracle for
// TestEvaluateMatchesReferenceLoops.
func referenceEvaluate(m *Model, sol *markov.Solution) *Evaluation {
	n := m.top.M()
	ev := &Evaluation{
		Sol:       sol,
		G:         make([]float64, n),
		CBar:      make([]float64, n),
		EBarI:     make([]float64, n),
		CoverTime: make([]float64, n),
	}
	coverNum := make([]float64, n)
	g := ev.G
	pd := sol.P.Data()
	var totalTime float64
	if sol.Method() == markov.MethodSparse {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				w := sol.Pi[j] * pd[j*n+k]
				if w == 0 {
					continue
				}
				totalTime += w * m.travel[j*n+k]
				crow := m.top.CoverRow(j, k)
				for i := 0; i < n; i++ {
					coverNum[i] += w * crow[i]
				}
			}
		}
		for i := 0; i < n; i++ {
			g[i] = coverNum[i] - m.top.TargetAt(i)*totalTime
		}
	} else {
		at := m.atTable()
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				w := sol.Pi[j] * pd[j*n+k]
				if w == 0 {
					continue
				}
				totalTime += w * m.travel[j*n+k]
				crow := m.top.CoverRow(j, k)
				arow := at[(j*n+k)*n : (j*n+k+1)*n]
				for i := 0; i < n; i++ {
					coverNum[i] += w * crow[i]
					g[i] += w * arow[i]
				}
			}
		}
	}
	ev.TotalTime = totalTime
	for i := 0; i < n; i++ {
		ev.CoverTime[i] = coverNum[i]
		ev.CBar[i] = coverNum[i] / totalTime
		ev.CoverageTerm += 0.5 * m.w.Alpha[i] * g[i] * g[i]
		ev.DeltaC += g[i] * g[i]
	}
	var sumE2 float64
	rd := sol.R.Data()
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			s += pd[i*n+j] * rd[j*n+i]
		}
		ev.EBarI[i] = s / (1 - pd[i*n+i])
		ev.ExposureTerm += 0.5 * m.w.Beta[i] * ev.EBarI[i] * ev.EBarI[i]
		sumE2 += ev.EBarI[i] * ev.EBarI[i]
	}
	ev.EBar = math.Sqrt(sumE2)
	for _, v := range pd {
		ev.Penalty += barrier(v, m.w.Epsilon)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			ev.Energy += sol.Pi[i] * sol.P.At(i, j) * m.top.Distance(i, j)
		}
	}
	if m.w.EnergyWeight > 0 {
		d := ev.Energy - m.w.EnergyTarget
		ev.EnergyTerm = 0.5 * m.w.EnergyWeight * d * d
	}
	ev.Entropy = sol.EntropyRate()
	if m.w.EntropyWeight > 0 {
		ev.EntropyTerm = -m.w.EntropyWeight * ev.Entropy
	}
	ev.Objective = ev.CoverageTerm + ev.ExposureTerm + ev.EnergyTerm + ev.EntropyTerm
	ev.U = ev.Objective + ev.Penalty
	return ev
}

// evaluationBitsDiff names the first Evaluation field whose bits differ
// between got and want, or returns "" when every field matches.
func evaluationBitsDiff(got, want *Evaluation) string {
	scalars := []struct {
		name      string
		got, want float64
	}{
		{"U", got.U, want.U},
		{"Objective", got.Objective, want.Objective},
		{"CoverageTerm", got.CoverageTerm, want.CoverageTerm},
		{"ExposureTerm", got.ExposureTerm, want.ExposureTerm},
		{"Penalty", got.Penalty, want.Penalty},
		{"EnergyTerm", got.EnergyTerm, want.EnergyTerm},
		{"EntropyTerm", got.EntropyTerm, want.EntropyTerm},
		{"DeltaC", got.DeltaC, want.DeltaC},
		{"EBar", got.EBar, want.EBar},
		{"TotalTime", got.TotalTime, want.TotalTime},
		{"Energy", got.Energy, want.Energy},
		{"Entropy", got.Entropy, want.Entropy},
	}
	for _, s := range scalars {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			return fmt.Sprintf("%s = %v, want %v", s.name, s.got, s.want)
		}
	}
	vectors := []struct {
		name      string
		got, want []float64
	}{
		{"G", got.G, want.G},
		{"CBar", got.CBar, want.CBar},
		{"EBarI", got.EBarI, want.EBarI},
		{"CoverTime", got.CoverTime, want.CoverTime},
	}
	for _, v := range vectors {
		if len(v.got) != len(v.want) {
			return fmt.Sprintf("len(%s) = %d, want %d", v.name, len(v.got), len(v.want))
		}
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", v.name, i, v.got[i], v.want[i])
			}
		}
	}
	return ""
}

// TestEvaluateMatchesReferenceLoops checks every Evaluation field bit for
// bit against referenceEvaluate, on both solver paths, at orders from 3
// to 97 (the at table and the cover lists at every size the descent
// meets, and the chain solve on both sides of the LU batching cutover).
// The matrices include the Metropolis baseline of a skewed target and a
// kNN support-restricted chain, whose exact zeros exercise the w == 0
// skip; a full M² support with M odd leaves a partial final block in the
// four-slot G fold.
func TestEvaluateMatchesReferenceLoops(t *testing.T) {
	var sawZero, sawPartial bool
	for _, size := range []int{3, 8, 24, 64, 97} {
		top, err := topology.Random(rng.New(uint64(size)+40), topology.RandomConfig{
			M: size, Width: 40 * float64(size), Height: 40 * float64(size), SkewTarget: true,
		})
		if err != nil {
			t.Fatalf("M=%d topology: %v", size, err)
		}
		w := Uniform(size, 1, 0.01)
		for i := range w.Alpha {
			w.Alpha[i] = 1 + float64(i%3)
		}
		w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = 0.5, 100, 0.05
		model, err := NewModel(top, w)
		if err != nil {
			t.Fatal(err)
		}
		metropolis, err := mcmc.MetropolisHastings(top.Target())
		if err != nil {
			t.Fatal(err)
		}
		matrices := []struct {
			name string
			p    *mat.Matrix
		}{
			{"random", randomErgodicP(rng.New(uint64(size)), size)},
			{"metropolis", metropolis},
			{"knn", knnSupportP(top, min(6, size-2))},
		}
		for _, mc := range matrices {
			var nonzero int
			for _, v := range mc.p.Data() {
				if v != 0 {
					nonzero++
				}
			}
			sawZero = sawZero || nonzero < size*size
			sawPartial = sawPartial || nonzero%4 != 0
			for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
				ws := model.NewWorkspace()
				ws.SetSolver(method)
				got, err := model.EvaluateIn(ws, mc.p)
				if err != nil {
					t.Fatalf("M=%d %s %v: %v", size, mc.name, method, err)
				}
				if got.Sol.Method() != method {
					t.Fatalf("M=%d %s: solved with %v, want %v", size, mc.name, got.Sol.Method(), method)
				}
				want := referenceEvaluate(model, got.Sol)
				if d := evaluationBitsDiff(got, want); d != "" {
					t.Errorf("M=%d %s %v: %s", size, mc.name, method, d)
				}
			}
		}
	}
	if !sawZero || !sawPartial {
		t.Fatalf("fixtures never hit the w == 0 skip (%v) or a partial four-slot block (%v)",
			sawZero, sawPartial)
	}
}
