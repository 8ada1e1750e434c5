package cost

import (
	"fmt"

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
	// barrier's zero band (ε, 1−ε) for some δ in the markov.Line's
	// certified range [0, δ_c]. A probe in that range passes only these
	// entries to the barrier; every other entry stays inside the band,
	// where the barrier is +0.
	edge []int32
}

// NewLine returns a search line for the model's chains with all float
// buffers carved from one allocation: the markov.Line's
// (markov.LineLen) and 2·M² + 4·M for the tables.
func (m *Model) NewLine() *Line {
	n := m.top.M()
	buf := make([]float64, markov.LineLen(n)+2*n*n+4*n)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	l := &Line{
		m:    m,
		n:    n,
		pi:   markov.NewLine(n, take(markov.LineLen(n))),
		edge: make([]int32, 0, n*n),
	}
	l.cover0, l.cover1 = take(n*n), take(n*n)
	l.time0, l.time1 = take(n), take(n)
	l.energy0, l.energy1 = take(n), take(n)
	return l
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
	covPtr, covIdx, covVal := top.CoverLists()
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

// resetEdge finds the entries that can leave the barrier band on the
// certified range [0, δ_c]; an empty range lists none, since no probe
// reads the list then. An entry is affine in δ, so it stays inside the
// band on the whole range when both ends of the range are inside by
// edgeMargin.
func (l *Line) resetEdge(pd, dd []float64) {
	l.edge = l.edge[:0]
	dc := l.pi.Certified()
	if dc < 0 {
		return
	}
	lo, hi := l.m.w.Epsilon+edgeMargin, 1-l.m.w.Epsilon-edgeMargin
	for k, p := range pd {
		end := p
		if d := dd[k]; d != 0 {
			end = p + dc*d
		}
		if !(min(p, end) > lo && max(p, end) < hi) {
			l.edge = append(l.edge, int32(k))
		}
	}
}

// ProbeIn evaluates a line-search probe: the cost at P + δ·D, the point
// at δ on line. π comes from the line's O(M²) shifted solve instead of
// a factorization, with the probed matrix formed by the line and
// checked like a direct solve's wherever the line's certificate does
// not already prove it passes (markov.Solver.SolveLine), and
// CoverTime, TotalTime and the energy from the line's affine tables
// instead of the cover lists. The exposure, the barrier and the entropy
// rate read the probed matrix; the entropy rate is computed only when
// its weight is nonzero, and the barrier reads only the entries that
// can leave its zero band on the line (bit for bit the full scan: every
// other entry adds +0). U agrees with EvaluateIn at the same matrix to
// rounding, not bit for bit (DESIGN §8.2). The returned Evaluation
// aliases the workspace like EvaluateIn's; its Sol holds the probed
// matrix and forms Z through the dense branch on request.
func (m *Model) ProbeIn(ws *Workspace, line *Line, delta float64) (*Evaluation, error) {
	if line.m != m {
		return nil, fmt.Errorf("%w: search line of another model", ErrWeights)
	}
	sol, err := ws.solver.SolveLine(line.pi, delta)
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
	if delta >= 0 && delta <= line.pi.Certified() {
		edge = line.edge
	}
	if err := m.finish(ev, sol, totalTime, energy, false, edge); err != nil {
		return nil, err
	}
	return ev, nil
}
