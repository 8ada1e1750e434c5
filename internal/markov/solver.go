package markov

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// Solver computes chain Solutions into preallocated buffers so that the
// optimizer's inner loop — which solves the same-sized chain thousands of
// times — performs no allocations in steady state.
//
// A solve has two stages. The stationary stage validates P, checks
// ergodicity and computes π with one factorization — or, for a point on
// a search Line, with one O(M²) shifted solve (SolveLine); it is all a
// cost evaluation needs. The fundamental stage forms W, Z and R (Eqs. 7–8)
// from the same solver, on the first Solution.Fundamental call after the
// stationary stage. Solve runs both; SolveStationary runs the first and
// leaves the second to whoever asks for it.
//
// A Solver owns the Solution it returns: every call to Solve or
// SolveStationary overwrites the previous result, so callers that need a
// Solution to outlive the next call must Clone it. A Solver is not safe
// for concurrent use; give each goroutine its own (the descent package
// allocates one per optimizer).
type Solver struct {
	n   int
	sol Solution

	lu  *mat.LU
	zin *mat.Matrix // holds the stationary system (I-P)^T, then I - P + W
	b   []float64   // right-hand side of the stationary system

	// Shifted-solve scratch of SolveLine, allocated on its first call.
	lineWs *mat.ShiftedScratch
	// lineScans counts the SolveLine probes outside their line's
	// certified range (LineScans).
	lineScans int

	// Graph-check scratch for the ergodicity test.
	seen  []bool
	level []int
	queue []int
}

// NewSolver returns a Solver for n-state chains with all buffers
// preallocated.
func NewSolver(n int) *Solver {
	s := &Solver{
		n: n,
		sol: Solution{
			P:  mat.New(n, n),
			Pi: make([]float64, n),
			w:  mat.New(n, n),
			z:  mat.New(n, n),
			r:  mat.New(n, n),
		},
		lu:    mat.NewLU(n),
		zin:   mat.New(n, n),
		b:     make([]float64, n),
		seen:  make([]bool, n),
		level: make([]int, n),
		queue: make([]int, 0, n),
	}
	s.sol.solver = s
	return s
}

// Solve runs both stages: it validates p, checks ergodicity, and computes
// the stationary distribution and the fundamental-stage matrices W, Z and
// R into the Solver's buffers. The returned Solution aliases those
// buffers and is valid until the next solve. Z² is not formed here; the
// Solution's Z2 forms it on request. No allocations occur on the success
// path.
func (s *Solver) Solve(p *mat.Matrix) (*Solution, error) {
	sol, err := s.SolveStationary(p)
	if err != nil {
		return nil, err
	}
	if err := sol.Fundamental(); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveStationary runs the stationary stage only: it validates p, checks
// ergodicity, and computes π and the Solution's copy of p. The returned
// Solution's W, Z and R are nil until its Fundamental method forms them
// from this Solver, which must not have solved another chain in between.
// No allocations occur on the success path.
func (s *Solver) SolveStationary(p *mat.Matrix) (*Solution, error) {
	if err := s.begin(p); err != nil {
		return nil, err
	}
	if err := s.stationary(p); err != nil {
		return nil, err
	}
	if err := s.sol.P.CopyFrom(p); err != nil {
		return nil, err
	}
	return &s.sol, nil
}

// begin opens a stationary stage for p: it checks p's shape, that it is
// stochastic and that it is ergodic, and re-arms the solution's lazy
// stages. One scan checks the entries and row sums and finds whether
// every entry is an edge, which decides ergodicity without the graph
// sweeps.
func (s *Solver) begin(p *mat.Matrix) error {
	n := s.n
	if p.Rows() != n || p.Cols() != n {
		return fmt.Errorf("%w: solver for %d states got %dx%d",
			ErrNotStochastic, n, p.Rows(), p.Cols())
	}
	positive, err := scanStochastic(p)
	if err != nil {
		return err
	}
	// Re-arm the lazy stages for this solve; their buffers are kept.
	s.sol.unform()
	if !positive && !s.ergodic(p) {
		return s.notErgodic(p)
	}
	return nil
}

// notErgodic is the error of a chain whose graph fails the ergodicity
// test; it reruns the full graph sweeps for the detail.
func (s *Solver) notErgodic(p *mat.Matrix) error {
	irreducible := s.reachesAll(p, false) && s.reachesAll(p, true)
	return fmt.Errorf("%w: irreducible=%v period=%d",
		ErrNotErgodic, irreducible, s.period(p))
}

// fundamental is the fundamental stage of the Solver's current solution:
// W, Z and R from its P and π, with Z from the pivoted dense LU of
// I − P + W.
func (s *Solver) fundamental() error {
	sol := &s.sol
	n := s.n
	wd := sol.w.Data()
	for i := 0; i < n; i++ {
		copy(wd[i*n:(i+1)*n], sol.Pi)
	}
	// Z = (I - P + W)^{-1}: build the operand, factor, invert into Z.
	// The entry order (I - P) + W matches the original two-step SubM/AddM
	// construction bit for bit.
	zd := s.zin.Data()
	pd := sol.P.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := 0.0
			if i == j {
				d = 1
			}
			zd[i*n+j] = (d - pd[i*n+j]) + wd[i*n+j]
		}
	}
	if err := s.lu.Refactor(s.zin); err != nil {
		return fmt.Errorf("markov: invert I-P+W: %w", err)
	}
	if err := s.lu.InverseTo(sol.z); err != nil {
		return fmt.Errorf("markov: invert I-P+W: %w", err)
	}
	s.formR()
	return nil
}

// formR fills R_ij = (δ_ij - z_ij + z_jj) / π_j from the current Z. The
// diagonal of Z is staged into the RHS scratch (idle here) so the inner
// loop streams three contiguous rows instead of re-reading a strided
// column.
func (s *Solver) formR() {
	n := s.n
	pi := s.sol.Pi
	zdd := s.sol.z.Data()
	rd := s.sol.r.Data()
	zdiag := s.b
	for j := 0; j < n; j++ {
		zdiag[j] = zdd[j*n+j]
	}
	for i := 0; i < n; i++ {
		zrow := zdd[i*n : (i+1)*n]
		rrow := rd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			d := 0.0
			if i == j {
				d = 1
			}
			rrow[j] = (d - zrow[j] + zdiag[j]) / pi[j]
		}
	}
}

// stationary solves π(I - P) = 0 with Σπ = 1 into s.sol.Pi, replacing one
// equation of the transposed homogeneous system with the normalization
// constraint (the same system the package-level stationary builds).
func (s *Solver) stationary(p *mat.Matrix) error {
	n := s.n
	a := s.zin.Data()
	pd := p.Data()
	for i := 0; i < n; i++ {
		arow := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			v := -pd[j*n+i]
			if i == j {
				v += 1
			}
			arow[j] = v
		}
	}
	for j := 0; j < n; j++ {
		a[(n-1)*n+j] = 1
	}
	for i := range s.b {
		s.b[i] = 0
	}
	s.b[n-1] = 1
	if err := s.lu.Refactor(s.zin); err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return fmt.Errorf("%w: stationary system singular", ErrNotErgodic)
		}
		return err
	}
	if err := s.lu.SolveVecTo(s.sol.Pi, s.b); err != nil {
		return err
	}
	return checkPositive(s.sol.Pi)
}

// ergodic reports whether p's positive-probability graph is irreducible
// and aperiodic, using the Solver's scratch buffers; it allocates
// nothing. A p whose every entry is an edge (scanStochastic) is ergodic
// without it: the graph is complete, so irreducible, and a self-loop
// makes it aperiodic. The descent's probability floor keeps every
// iterate and probe there.
func (s *Solver) ergodic(p *mat.Matrix) bool {
	if !s.reachesAll(p, false) || !s.reachesAll(p, true) {
		return false
	}
	return s.period(p) == 1
}

// reachesAll runs a BFS from state 0 over the positive-probability edge
// graph (or its reverse) and reports whether every state was visited.
func (s *Solver) reachesAll(p *mat.Matrix, reverse bool) bool {
	n := s.n
	for i := range s.seen {
		s.seen[i] = false
	}
	s.queue = s.queue[:0]
	s.seen[0] = true
	s.queue = append(s.queue, 0)
	pd := p.Data()
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for v := 0; v < n; v++ {
			var w float64
			if reverse {
				w = pd[v*n+u]
			} else {
				w = pd[u*n+v]
			}
			if w > edgeTol && !s.seen[v] {
				s.seen[v] = true
				s.queue = append(s.queue, v)
			}
		}
	}
	return len(s.queue) == n
}

// period returns the period of p's chain: the gcd of cycle lengths
// through state 0, from BFS levels (every edge (u, v) contributes
// level[u] + 1 − level[v]), using the Solver's scratch. It requires an
// irreducible chain; for a reducible one the result is meaningful only
// for state 0's communicating class, and a graph with no cycle through
// state 0 reports period 1 by convention.
func (s *Solver) period(p *mat.Matrix) int {
	n := s.n
	for i := range s.level {
		s.level[i] = -1
	}
	s.level[0] = 0
	s.queue = s.queue[:0]
	s.queue = append(s.queue, 0)
	g := 0
	pd := p.Data()
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		prow := pd[u*n : (u+1)*n]
		for v := 0; v < n; v++ {
			if prow[v] <= edgeTol {
				continue
			}
			if s.level[v] == -1 {
				s.level[v] = s.level[u] + 1
				s.queue = append(s.queue, v)
			} else {
				g = gcd(g, abs(s.level[u]+1-s.level[v]))
			}
		}
	}
	if g == 0 {
		return 1
	}
	return g
}

// checkPositive rejects stationary vectors with non-positive or NaN
// entries, the shared failure mode of reducible chains.
func checkPositive(pi []float64) error {
	for i, v := range pi {
		if !(v > 0) {
			return fmt.Errorf("%w: π_%d = %v", ErrNotErgodic, i, v)
		}
	}
	return nil
}

// Clone returns a deep copy of the Solution, detaching it from whatever
// Solver buffers back it. Use it to retain a Solution past the next solve
// on the owning Solver. Z² is not copied or formed, the clone's Z2 forms
// it on request. W, Z and R are copied when the fundamental stage was
// formed; otherwise the clone has no solver to form them from, and its
// Fundamental reports ErrNoFundamental.
func (s *Solution) Clone() *Solution {
	out := &Solution{}
	s.CopyTo(out)
	return out
}

// CopyTo overwrites dst with a copy of s under Clone's rules, reusing
// dst's buffers where their shapes match, so retaining a stream of
// solutions in one destination allocates nothing. dst's Z² is re-armed
// (its buffer kept) rather than copied. dst must not be a Solver's own
// solution.
func (s *Solution) CopyTo(dst *Solution) {
	dst.P = copyMatrix(dst.P, s.P)
	dst.Pi = append(dst.Pi[:0], s.Pi...)
	dst.unform()
	dst.solver = nil
	if s.Z == nil {
		return
	}
	dst.w = copyMatrix(dst.w, s.W)
	dst.z = copyMatrix(dst.z, s.Z)
	dst.r = copyMatrix(dst.r, s.R)
	dst.fundOnce.Do(dst.adopt)
}

// copyMatrix copies src into dst when the shapes match and returns dst,
// or returns a fresh clone of src otherwise.
func copyMatrix(dst, src *mat.Matrix) *mat.Matrix {
	if dst == nil || dst.CopyFrom(src) != nil {
		return src.Clone()
	}
	return dst
}
