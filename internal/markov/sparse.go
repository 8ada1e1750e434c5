package markov

import (
	"fmt"
	"slices"

	"repro/internal/mat"
)

// Method selects the linear-algebra backend a Solver uses for the
// fundamental-matrix systems.
type Method int

const (
	// MethodDense is the bit-exact reference path: dense LU with partial
	// pivoting and a full Z (the default; golden traces pin it).
	MethodDense Method = iota
	// MethodSparse factors the sparse replaced-row stationary system with
	// a fill-reducing sparse LU and absorbs the W = 1πᵀ densification of
	// the fundamental-matrix system as a rank-2 Sherman–Morrison–Woodbury
	// update of that one factorization, so per-solve cost scales with
	// the factor fill instead of M³. Results agree with MethodDense to
	// SparseTol (see below). When the no-pivoting sparse factorization
	// rejects a near-singular pivot the solver transparently falls back
	// to the dense path, so MethodSparse never trades correctness for
	// speed.
	MethodSparse
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodSparse:
		return "sparse"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SparseTol is the documented agreement tolerance of the sparse path: for
// the well-conditioned Markov systems this package solves (κ bounded by
// the chain's mixing structure), sparse-vs-dense results for π, Z and R
// agree to SparseTol in max norm relative to the quantity's magnitude.
// The cross-check tests in cost assert exactly this contract on the four
// paper topologies plus random geometric instances.
const SparseTol = 1e-8

// SetMethod selects the solver backend for subsequent Solve calls.
func (s *Solver) SetMethod(m Method) { s.method = m }

// sparseScratch holds the sparse path's per-solve assembly buffers plus
// the cached factorization machinery. Both the fill-reducing ordering
// (which depends only on the support pattern) and the SparseLU's flat
// factor storage (whose fill pattern is fixed for a fixed support and
// ordering) are reused across solves: line-search probes and successive
// descent iterates keep P's support, so after the first solve a sparse
// Solve allocates nothing and only pays the assembly and elimination
// flops. The stationary system's CSR storage and the Woodbury solver are
// reused the same way.
type sparseScratch struct {
	rcols [][]int32
	rvals [][]float64
	u     []float64
	u2    []float64
	e     []float64

	sig     []int32      // current stationary-system pattern signature
	pat     []int32      // pattern the cached ordering was computed for
	patPerm []int        // cached mat.FillOrder of pat
	sys     mat.Sparse   // the stationary system S, rebuilt per solve
	lu      mat.SparseLU // factor storage, reused across Refactor calls
	lr      mat.LowRankSolver
}

// stationarySparse is the MethodSparse stationary stage. One sparse LU
// — of the transposed replaced-row stationary system S (rows of (I − P)ᵀ
// with the last row replaced by the Σπ = 1 normalization) — gives π from
// S x = e_n, and stays in the scratch for fundamentalSparse. Any
// mat.ErrSingular from the no-pivoting factorization is returned for the
// caller to fall back to the dense path.
func (s *Solver) stationarySparse(p *mat.Matrix) error {
	n := s.n
	if s.sp == nil {
		s.sp = &sparseScratch{
			rcols: make([][]int32, n),
			rvals: make([][]float64, n),
			u:     make([]float64, n),
			u2:    make([]float64, n),
			e:     make([]float64, n),
		}
	}
	sp := s.sp
	pd := p.Data()

	// Stationary system S: rows i < n−1 hold (I − P)ᵀ, the last row is
	// all ones (the normalization Σπ = 1), right-hand side e_{n−1}. One
	// row-major sweep of P scatters p_jk into row k at column j; rows
	// fill in ascending column order because j is the outer index. The
	// diagonal entry 1 − p_kk is kept unless it is exactly zero (it is 1
	// where p_kk = 0), and off-diagonal zeros of P are not stored.
	for i := 0; i < n-1; i++ {
		sp.rcols[i] = sp.rcols[i][:0]
		sp.rvals[i] = sp.rvals[i][:0]
	}
	for j := 0; j < n; j++ {
		prow := pd[j*n : (j+1)*n]
		for k, v := range prow[:n-1] {
			if k == j {
				v = 1 - v
			} else {
				v = -v
			}
			if v != 0 {
				sp.rcols[k] = append(sp.rcols[k], int32(j))
				sp.rvals[k] = append(sp.rvals[k], v)
			}
		}
	}
	{
		cols := sp.rcols[n-1][:0]
		vals := sp.rvals[n-1][:0]
		for j := 0; j < n; j++ {
			cols = append(cols, int32(j))
			vals = append(vals, 1)
		}
		sp.rcols[n-1], sp.rvals[n-1] = cols, vals
	}
	statSys := &sp.sys
	if err := statSys.SetRows(n, n, sp.rcols, sp.rvals); err != nil {
		return err
	}
	// The fill-reducing ordering depends only on the support pattern;
	// recompute it only when the pattern changed since the last solve.
	sig := sp.sig[:0]
	for i := 0; i < n; i++ {
		sig = append(sig, int32(len(sp.rcols[i])))
		sig = append(sig, sp.rcols[i]...)
	}
	sp.sig = sig
	if !slices.Equal(sig, sp.pat) {
		sp.pat = append(sp.pat[:0], sig...)
		sp.patPerm = mat.FillOrder(statSys)
	}
	statLU := &sp.lu
	if err := statLU.Refactor(statSys, sp.patPerm, 0); err != nil {
		return err
	}
	for i := range sp.e {
		sp.e[i] = 0
	}
	sp.e[n-1] = 1
	if err := statLU.SolveVecTo(s.sol.Pi, sp.e); err != nil {
		return err
	}
	return checkPositive(s.sol.Pi)
}

// fundamentalSparse is the MethodSparse fundamental stage. The
// stationary factorization absorbs the fundamental-matrix system as a
// rank-2 Woodbury update of Sᵀ,
//
//	A = I − P + 1πᵀ = Sᵀ + 1·πᵀ + (g − 1)·e_nᵀ,
//
// where g is the last column of I − P (Sᵀ differs from I − P only in
// that column, which the normalization row replaced). Z then arrives in
// one blocked multi-RHS solve against the identity. Any mat.ErrSingular
// is returned for the caller to fall back to the dense path.
func (s *Solver) fundamentalSparse() error {
	n := s.n
	sp := s.sp
	pd := s.sol.P.Data()
	pi := s.sol.Pi
	for i := range sp.u {
		sp.u[i] = 1
	}
	last := n - 1
	for j := 0; j < n; j++ {
		g := -pd[j*n+last]
		if j == last {
			g++
		}
		sp.u2[j] = g - 1
	}
	// sp.e still holds e_{n−1} from the π solve.
	lr := &sp.lr
	if err := lr.RefactorTrans(&sp.lu,
		[][]float64{sp.u, sp.u2}, [][]float64{pi, sp.e}); err != nil {
		return err
	}

	// Z = A⁻¹ in one blocked multi-RHS solve against the identity: the
	// n×n row-major block layout of SolveMultiTo (rhs r in column r)
	// coincides with Z's own layout, so the solve lands directly in Z.
	zd := s.sol.z.Data()
	for i := range zd {
		zd[i] = 0
	}
	for i := 0; i < n; i++ {
		zd[i*n+i] = 1
	}
	if err := lr.SolveMultiTo(zd, zd, n); err != nil {
		return err
	}
	return nil
}
