package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrDirection indicates a line whose order does not match the chain,
// direction or solver it is used with.
var ErrDirection = errors.New("markov: invalid line direction")

// Line is the stationary distribution along a search line P + δ·D, for
// a direction D with zero row sums, as a function of δ.
//
// Schweitzer's perturbation identity gives it in closed form from the
// base point's π and fundamental matrix Z: because D·1 = 0, Z·1 = 1 and
// π·Z = π, the chain P + δD has
//
//	π(δ) = π·(I − δ·B)⁻¹,  B = D·Z,
//
// whenever P + δD is ergodic (DESIGN §5). Reset reduces B to Hessenberg
// form H = QᵀBQ once, in O(M³), and keeps c = π·Q; every δ after that
// is one O(M²) shifted Hessenberg solve u·(I − δH) = c and π(δ) = u·Qᵀ.
// The line search probes a few dozen δ along one direction, so this
// replaces a factorization per probe by one reduction per search.
//
// The line keeps its own copies of P and D, so a probe forms its matrix
// P + δ·D itself (SolveLine), and a certified step range [0, δ_c] on
// which that matrix provably passes every check of a direct solve's
// stationary stage (certify), so a probe in the range re-scans nothing.
// Solving against a Line only reads it.
type Line struct {
	n int
	h *mat.Hessenberg
	// d holds B = D·Z while Reset reduces it; the reduction keeps its
	// own copy, so from then on it holds D.
	d *mat.Matrix
	p []float64 // P
	c []float64 // π·Q
	// cert is δ_c, negative when no step is certified.
	cert float64
}

// LineLen is the number of floats a Line of order n keeps.
func LineLen(n int) int { return mat.HessenbergLen(n) + 2*n*n + n }

// NewLine returns a Line for n-state chains whose buffers are the
// first LineLen(n) floats of buf, or a fresh allocation when buf is
// nil. It panics if a non-nil buf is too short.
func NewLine(n int, buf []float64) *Line {
	nn, hl := n*n, mat.HessenbergLen(n)
	if buf == nil {
		buf = make([]float64, LineLen(n))
	}
	buf = buf[:LineLen(n)]
	return &Line{
		n:    n,
		h:    mat.NewHessenberg(n, buf[:hl:hl]),
		d:    mat.NewOn(n, n, buf[hl:hl+nn]),
		p:    buf[hl+nn : hl+2*nn : hl+2*nn],
		c:    buf[hl+2*nn : hl+2*nn+n : hl+2*nn+n],
		cert: -1,
	}
}

// Reset builds the line through sol's chain along d. It forms sol's
// fundamental stage if that has not happened yet, so sol must still be
// its Solver's current solution or carry a formed Z. The identity needs
// d to have zero row sums; Reset does not check that: the certificate
// bounds the row sums of P + δ·d, and a probe outside it scans them. It
// performs no allocations on the success path.
func (l *Line) Reset(sol *Solution, d *mat.Matrix) error {
	n := l.n
	if len(sol.Pi) != n || d.Rows() != n || d.Cols() != n {
		return fmt.Errorf("%w: line of order %d through a %d-state chain along %dx%d",
			ErrDirection, n, len(sol.Pi), d.Rows(), d.Cols())
	}
	if err := sol.Fundamental(); err != nil {
		return err
	}
	l.cert = -1 // until the line is whole
	if err := mat.MulTo(l.d, d, sol.Z); err != nil {
		return err
	}
	if err := l.h.Reduce(l.d); err != nil {
		return err
	}
	copy(l.d.Data(), d.Data())
	copy(l.p, sol.P.Data())
	copy(l.c, sol.Pi)
	l.h.ApplyQ(l.c)
	l.cert = certify(l.p, l.d.Data(), n, certSafety)
	return nil
}

// Certificate constants. An entry of P within certMargin of 0 or 1
// certifies no step; certSafety multiplies the rounding terms of the
// row-sum bound.
const (
	certMargin = 1e-12
	certSafety = 4
)

// certify returns δ_c, the end of the certified step range of the line
// through p along d (row-major n×n), or −1 when the range is empty: P
// has an entry within certMargin of 0 or 1, P or D a non-finite entry,
// or a row of P misses its sum by more than the bound allows at δ = 0.
//
// For every δ in [0, δ_c], x = fl(p + fl(δ·d)) — the matrix
// Line.pointAt forms — passes scanStochastic with every entry an edge:
//
//   - Entries. δ_c ≤ (p − certMargin)/|d| for d < 0 and
//     ≤ (1 − certMargin − p)/d for d > 0, so δ·d moves an entry at most
//     to within certMargin of 0 or 1 up to a few units of roundoff
//     u = 2⁻⁵³; x then lies in (0, 1): finite, inside the entry
//     tolerance and an edge.
//   - Row sums. The computed sum S of a row of x satisfies
//     |S − 1| ≤ |Σp − 1| + δ·|Σd| + (2n+3)·u·(Σ|p| + δ·Σ|d|), counting the
//     rounding of the product, the addition and the ordered sum of x
//     and that of the computed Σp and Σd; δ_c keeps
//     |Σp − 1| + δ·|Σd| + safety·(n+2)·u·(Σ|p| + δ·Σ|d|) within rowSumTol,
//     and safety = certSafety = 4 covers the rounding terms twice over.
//
// safety is a parameter so that a test can drop the rounding terms and
// watch its soundness property fail.
func certify(p, d []float64, n int, safety float64) float64 {
	const u = 0x1p-53
	slack := safety * float64(n+2) * u
	dc := math.MaxFloat64 // finite, so δ·0 stays 0 on the whole range
	for i := 0; i < n; i++ {
		prow, drow := p[i*n:(i+1)*n], d[i*n:(i+1)*n]
		drow = drow[:len(prow)]
		var sp, sd, ad float64
		for j, v := range prow {
			w := drow[j]
			if !(v > certMargin && v < 1-certMargin) || math.IsNaN(w) || math.IsInf(w, 0) {
				return -1
			}
			switch {
			case w < 0:
				dc = min(dc, (v-certMargin)/-w)
			case w > 0:
				dc = min(dc, (1-certMargin-v)/w)
			}
			sp += v
			sd += w
			ad += math.Abs(w)
		}
		// Every entry of P is positive here, so Σ|p| is sp.
		a := math.Abs(sp-1) + slack*sp
		b := math.Abs(sd) + slack*ad
		if !(a <= rowSumTol) {
			return -1
		}
		if b > 0 {
			dc = min(dc, (rowSumTol-a)/b)
		}
	}
	return dc
}

// Certified returns δ_c, the end of the line's certified step range
// [0, δ_c], or a negative value when the range is empty. A probe at
// any δ in the range runs no check of its matrix (SolveLine).
func (l *Line) Certified() float64 { return l.cert }

// certified reports whether δ lies in the certified step range. NaN
// does not.
func (l *Line) certified(delta float64) bool {
	return delta >= 0 && delta <= l.cert
}

// pointAt writes P + δ·D into dst with the expression of a descent step
// (P itself at δ = 0, p + δ·d entry by entry otherwise), so the probed
// matrix is bit for bit the one the step forms.
func (l *Line) pointAt(dst []float64, delta float64) {
	if delta == 0 {
		copy(dst, l.p)
		return
	}
	dst = dst[:len(l.p)]
	d := l.d.Data()[:len(l.p)]
	for i, v := range l.p {
		dst[i] = v + delta*d[i]
	}
}

// stationaryAt writes π(δ) into pi using the caller's scratch. A shift
// whose system is numerically singular returns mat.ErrSingular.
func (l *Line) stationaryAt(pi []float64, delta float64, ws *mat.ShiftedScratch) error {
	if err := l.h.ShiftedSolveTo(pi, l.c, delta, ws); err != nil {
		return err
	}
	l.h.ApplyQT(pi)
	return nil
}

// SolveLine runs the stationary stage for P + δ·D, the point at δ on
// the line l, taking π from the line instead of a factorization. It
// forms the point into the Solution's P in one pass. Inside the line's
// certified range that matrix provably passes every check of
// SolveStationary, so none is run; any other δ (negative, NaN, past
// δ_c) runs them on it — stochasticity, the ergodicity test — and
// counts one scan (LineScans). Either way π must be positive. A probe
// therefore fails exactly where a direct solve of the same matrix
// fails, except that a shift the line's Hessenberg solve finds
// singular reports ErrNotErgodic the way a singular stationary system
// does, and π is the point's only up to rounding (DESIGN §8.2).
//
// The returned Solution's Fundamental forms W, Z and R from P. No
// allocations occur on the success path after the first call.
func (s *Solver) SolveLine(l *Line, delta float64) (*Solution, error) {
	if l.n != s.n {
		return nil, fmt.Errorf("%w: line of order %d for a %d-state solver", ErrDirection, l.n, s.n)
	}
	s.sol.unform()
	l.pointAt(s.sol.P.Data(), delta)
	if !l.certified(delta) {
		s.lineScans++
		if err := s.begin(s.sol.P); err != nil {
			return nil, err
		}
	}
	if s.lineWs == nil {
		s.lineWs = mat.NewShiftedScratch(s.n)
	}
	if err := l.stationaryAt(s.sol.Pi, delta, s.lineWs); err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return nil, fmt.Errorf("%w: stationary system singular on the search line", ErrNotErgodic)
		}
		return nil, err
	}
	if err := checkPositive(s.sol.Pi); err != nil {
		return nil, err
	}
	return &s.sol, nil
}

// LineScans returns the number of SolveLine probes that fell outside
// their line's certified range and scanned the probed matrix. It counts
// work, not time, and changes no result.
func (s *Solver) LineScans() int { return s.lineScans }
