package cost

import (
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
)

// Line is the cost along one search line P + δ·D of a Model, for a
// direction D with zero row sums: the markov.Line that gives π(δ), and
// the tables that make everything else the coverage and energy folds
// read affine in δ. Row j of P + δ·D is p_j + δ·d_j, so
//
//	CoverTime_i(δ) = Σ_j π_j(δ)·(A_ji + δ·B_ji),  A_ji = Σ_k p_jk T_{jk,i},  B_ji = Σ_k d_jk T_{jk,i},
//	TotalTime(δ)   = Σ_j π_j(δ)·(a_j + δ·b_j),    a_j = Σ_k p_jk T_jk,      b_j = Σ_k d_jk T_jk,
//	D(δ)           = Σ_j π_j(δ)·(e_j + δ·f_j),    e_j = Σ_{k≠j} p_jk d_jk,  f_j = Σ_{k≠j} d_jk dist_jk.
//
// Reset builds the tables once per search, with one walk of the cover
// lists; a probe (Model.ProbeIn) then folds π(δ) against them with one
// dense O(M²) pass and walks no cover list (DESIGN §6.2).
type Line struct {
	m  *Model
	n  int
	pi *markov.Line
	// cover0/cover1 hold A and B row-major: cover0[j*n+i] = A_ji.
	cover0, cover1 []float64
	// time0/time1 hold a and b, energy0/energy1 hold e and f.
	time0, time1     []float64
	energy0, energy1 []float64
	// edge lists, ascending, the entries of P + δ·D that can leave the
	// barrier's zero band (ε, 1−ε) for some δ in [0, reach], where reach
	// is the largest δ that keeps every entry in [0, 1]. A probe in that
	// range passes only these entries to the barrier; every other entry
	// stays inside the band, where the barrier is +0.
	edge  []int32
	reach float64
}

// NewLine returns a search line for the model's chains with all buffers
// preallocated: 2·M² + 6·M floats beside the markov.Line.
func (m *Model) NewLine() *Line {
	n := m.top.M()
	return &Line{
		m:       m,
		n:       n,
		pi:      markov.NewLine(n),
		cover0:  make([]float64, n*n),
		cover1:  make([]float64, n*n),
		time0:   make([]float64, n),
		time1:   make([]float64, n),
		energy0: make([]float64, n),
		energy1: make([]float64, n),
		edge:    make([]int32, 0, n*n),
	}
}

// edgeMargin is the distance from the barrier band's ends inside which
// an entry of P + δ·D counts as able to leave it. It covers the rounding
// of the probe's p + δ·d and of the end-point values Reset compares,
// each a few units of 1e-16 for entries in [0, 1].
const edgeMargin = 1e-12

// Reset builds the line through sol's chain along d: the markov.Line
// (markov.Line.Reset, which forms sol's fundamental stage if needed) and
// the affine tables from sol.P, d and the model's cover lists. It
// performs no allocations on the success path.
func (l *Line) Reset(sol *markov.Solution, d *mat.Matrix) error {
	if err := l.pi.Reset(sol, d); err != nil {
		return err
	}
	n := l.n
	top := l.m.top
	covPtr, covIdx, covVal := l.m.coverLists()
	travel := l.m.travel
	pd, dd := sol.P.Data(), d.Data()
	clear(l.cover0)
	clear(l.cover1)
	for j := 0; j < n; j++ {
		a := l.cover0[j*n : (j+1)*n]
		b := l.cover1[j*n : (j+1)*n]
		dist := top.DistanceRow(j)
		var t0, t1, e0, e1 float64
		for k := 0; k < n; k++ {
			slot := j*n + k
			pjk, djk := pd[slot], dd[slot]
			t0 += pjk * travel[slot]
			t1 += djk * travel[slot]
			if k != j {
				e0 += pjk * dist[k]
				e1 += djk * dist[k]
			}
			lo, hi := covPtr[slot], covPtr[slot+1]
			idx := covIdx[lo:hi]
			vals := covVal[lo:hi]
			vals = vals[:len(idx)]
			for t, i := range idx {
				a[i] += pjk * vals[t]
				b[i] += djk * vals[t]
			}
		}
		l.time0[j], l.time1[j] = t0, t1
		l.energy0[j], l.energy1[j] = e0, e1
	}
	l.resetEdge(pd, dd)
	return nil
}

// resetEdge finds reach and the entries that can leave the barrier band
// on [0, reach]. An entry is affine in δ, so it stays inside the band on
// the whole range when both ends of the range are inside by edgeMargin.
func (l *Line) resetEdge(pd, dd []float64) {
	reach := math.Inf(1)
	for k, d := range dd {
		switch {
		case d < 0:
			reach = min(reach, -pd[k]/d)
		case d > 0:
			reach = min(reach, (1-pd[k])/d)
		}
	}
	l.reach = reach
	lo, hi := l.m.w.Epsilon+edgeMargin, 1-l.m.w.Epsilon-edgeMargin
	l.edge = l.edge[:0]
	for k, p := range pd {
		end := p
		if d := dd[k]; d != 0 {
			end = p + reach*d
		}
		if !(min(p, end) > lo && max(p, end) < hi) {
			l.edge = append(l.edge, int32(k))
		}
	}
}

// ProbeIn evaluates a line-search probe: the cost at p = P + δ·D, a point
// on line. π comes from the line's O(M²) shifted solve instead of a
// factorization of p, with every check of a direct solve
// (markov.Solver.SolveLine), and CoverTime, TotalTime and the energy
// from the line's affine tables instead of the cover lists. The
// exposure, the barrier and the entropy rate read p itself; the entropy
// rate is computed only when its weight is nonzero, and the barrier
// reads only the entries that can leave its zero band on the line
// (bit for bit the full scan: every other entry adds +0). U agrees with
// EvaluateIn at p to rounding, not bit for bit (DESIGN §8.2). The
// returned Evaluation aliases the workspace like EvaluateIn's; its Sol
// forms Z through the dense branch on request.
func (m *Model) ProbeIn(ws *Workspace, line *Line, p *mat.Matrix, delta float64) (*Evaluation, error) {
	if line.m != m {
		return nil, fmt.Errorf("%w: search line of another model", ErrWeights)
	}
	sol, err := ws.solver.SolveLine(line.pi, p, delta)
	if err != nil {
		return nil, err
	}
	n := line.n
	ev := &ws.ev
	cover := ev.CoverTime
	clear(cover)
	var totalTime, energy float64
	for j, pj := range sol.Pi {
		totalTime += pj * (line.time0[j] + delta*line.time1[j])
		energy += pj * (line.energy0[j] + delta*line.energy1[j])
		a := line.cover0[j*n : (j+1)*n]
		b := line.cover1[j*n : (j+1)*n]
		b = b[:len(a)]
		cover = cover[:len(a)]
		for i, v := range a {
			cover[i] += pj * (v + delta*b[i])
		}
	}
	var edge []int32 // nil: the barrier scans every entry
	if delta >= 0 && delta <= line.reach {
		edge = line.edge
	}
	if err := m.finish(ev, sol, totalTime, energy, false, edge); err != nil {
		return nil, err
	}
	return ev, nil
}
