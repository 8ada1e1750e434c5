package mat

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultSparsePivotRatio is the scaled pivot-magnitude floor for
// FactorSparse: a diagonal pivot whose magnitude falls below this ratio
// of its row's largest input magnitude aborts the no-pivoting
// factorization with ErrSingular, mirroring the dense LU's near-singular
// guard. Callers (the markov sparse path) treat that as "fall back to the
// dense pivoted solver", so the threshold only needs to catch genuinely
// dangerous pivots, not tune accuracy.
const DefaultSparsePivotRatio = 1e-12

// SparseLU is a sparse LU factorization PᵀAP = LU without numerical
// pivoting, where P is a fill-reducing symmetric permutation (minimum
// degree or reverse Cuthill–McKee, near-dense rows pinned last). L has an
// implicit unit diagonal; U's diagonal is stored separately. The factor
// rows live in flat CSR arrays so that Refactor can rebuild the
// factorization without reallocating — the markov sparse path refactors
// once per solve on a fixed support, where per-row append growth would
// otherwise dominate the elimination flops. The Markov systems this
// factors — the replaced-row stationary system and its low-rank
// derivatives — are (weakly) diagonally dominant on their sparse rows,
// which is what makes the no-pivoting factorization viable; the scaled
// pivot guard catches the cases where it is not.
type SparseLU struct {
	n     int
	perm  []int // perm[k] = original index of ordered position k
	iperm []int // iperm[orig] = ordered position

	lptr  []int32 // n+1 row pointers into lcol/lval
	lcol  []int32 // L columns (< row), ascending within each row
	lval  []float64
	uptr  []int32 // n+1 row pointers into ucol/uval
	ucol  []int32 // strict-U columns (> row), ascending within each row
	uval  []float64
	udiag []float64

	y  []float64 // permuted solve scratch
	ym []float64 // permuted multi-rhs scratch, grown on demand

	// Elimination scratch of Refactor: the dense row accumulator, its
	// occupancy flags (both all-zero between rows), and the touched list.
	acc     []float64
	inRow   []bool
	touched []int32
}

// FactorSparse computes a sparse LU factorization of the square matrix a.
// pivotRatio scales the near-singular rejection threshold (see
// DefaultSparsePivotRatio; pass 0 for the default). The factorization
// rejects — rather than silently amplifies — rows whose diagonal pivot
// collapses relative to the row's input magnitude.
func FactorSparse(a *Sparse, pivotRatio float64) (*SparseLU, error) {
	return FactorSparseOrdered(a, nil, pivotRatio)
}

// FactorSparseOrdered is FactorSparse with a caller-supplied elimination
// order (perm[k] = original index of ordered position k). The symbolic
// analysis — FillOrder or RCMOrder — depends only on the sparsity
// pattern, so callers that factor a sequence of matrices with identical
// support (line-search probes, successive descent iterates) can compute
// the ordering once and amortize it. A nil perm computes FillOrder(a)
// internally.
func FactorSparseOrdered(a *Sparse, perm []int, pivotRatio float64) (*SparseLU, error) {
	f := &SparseLU{}
	if err := f.Refactor(a, perm, pivotRatio); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factorization of a into f, reusing f's factor
// storage. After the first factorization on a given support, subsequent
// Refactor calls allocate nothing: the fill pattern of a fixed support
// under a fixed ordering is itself fixed, so the flat arrays are already
// the right size. perm and pivotRatio behave as in FactorSparseOrdered.
// On error f is left unusable and must be refactored before solving.
func (f *SparseLU) Refactor(a *Sparse, perm []int, pivotRatio float64) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: sparse LU of %dx%d", ErrDimension, a.rows, a.cols)
	}
	if pivotRatio <= 0 {
		pivotRatio = DefaultSparsePivotRatio
	}
	n := a.rows
	if perm != nil && len(perm) != n {
		return fmt.Errorf("%w: ordering of %d for order %d", ErrDimension, len(perm), n)
	}
	f.n = n
	if cap(f.udiag) < n {
		f.perm = make([]int, n)
		f.iperm = make([]int, n)
		f.lptr = make([]int32, n+1)
		f.uptr = make([]int32, n+1)
		f.udiag = make([]float64, n)
		f.y = make([]float64, n)
		f.acc = make([]float64, n)
		f.inRow = make([]bool, n)
		f.touched = make([]int32, 0, n)
	}
	f.perm = f.perm[:n]
	f.iperm = f.iperm[:n]
	f.lptr = f.lptr[:n+1]
	f.uptr = f.uptr[:n+1]
	f.udiag = f.udiag[:n]
	f.y = f.y[:n]
	f.lcol, f.lval = f.lcol[:0], f.lval[:0]
	f.ucol, f.uval = f.ucol[:0], f.uval[:0]
	if perm == nil {
		copy(f.perm, FillOrder(a))
	} else {
		copy(f.perm, perm)
	}
	for k, orig := range f.perm {
		f.iperm[orig] = k
	}

	// Row-wise (up-looking) elimination with a dense accumulator: scatter
	// the permuted row, eliminate against every finished U row it touches
	// in ascending column order, then harvest the L and U entries. The
	// ascending-order walk is a flag scan over [0, k) — O(n) per row, an
	// O(n²) total that is noise next to the elimination flops.
	x := f.acc[:n]
	inRow := f.inRow[:n]
	touched := f.touched[:0]
	f.lptr[0], f.uptr[0] = 0, 0
	for k := 0; k < n; k++ {
		orig := f.perm[k]
		cols, vals := a.Row(orig)
		rowMax := 0.0
		for i, c := range cols {
			pc := f.iperm[c]
			x[pc] = vals[i]
			if !inRow[pc] {
				inRow[pc] = true
				touched = append(touched, int32(pc))
			}
			if m := math.Abs(vals[i]); m > rowMax {
				rowMax = m
			}
		}
		for j := 0; j < k; j++ {
			if !inRow[j] {
				continue
			}
			l := x[j] / f.udiag[j]
			x[j] = 0
			if l != 0 {
				f.lcol = append(f.lcol, int32(j))
				f.lval = append(f.lval, l)
				uc := f.ucol[f.uptr[j]:f.uptr[j+1]]
				uv := f.uval[f.uptr[j]:f.uptr[j+1]]
				for i, c := range uc {
					if !inRow[c] {
						inRow[c] = true
						touched = append(touched, c)
					}
					x[c] -= l * uv[i]
				}
			}
		}
		d := x[k]
		if d == 0 || math.Abs(d) < pivotRatio*rowMax || rowMax == 0 {
			for _, c := range touched {
				x[c] = 0
				inRow[c] = false
			}
			return fmt.Errorf("%w: sparse pivot %g at ordered row %d (row max %g)",
				ErrSingular, d, k, rowMax)
		}
		f.udiag[k] = d
		x[k] = 0
		f.lptr[k+1] = int32(len(f.lcol))
		// Harvest the strict upper part in ascending column order: sort the
		// touched list once (it holds every fill position) and copy out.
		slices.Sort(touched)
		for _, c := range touched {
			inRow[c] = false
			if int(c) <= k {
				x[c] = 0
				continue
			}
			if v := x[c]; v != 0 {
				f.ucol = append(f.ucol, c)
				f.uval = append(f.uval, v)
			}
			x[c] = 0
		}
		f.uptr[k+1] = int32(len(f.ucol))
		touched = touched[:0]
	}
	return nil
}

// NNZ returns the number of stored factor entries (L + U + diagonal),
// the fill diagnostic behind the dense↔sparse crossover documentation.
func (f *SparseLU) NNZ() int {
	return int(f.lptr[f.n]) + int(f.uptr[f.n]) + f.n
}

// Order returns the matrix order.
func (f *SparseLU) Order() int { return f.n }

// SolveVecTo solves A x = b into the caller-owned x, which must not
// alias b. No allocations occur.
func (f *SparseLU) SolveVecTo(x, b []float64) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("%w: sparse solve with rhs of %d into %d, want %d", ErrDimension, len(b), len(x), n)
	}
	y := f.y
	for k := 0; k < n; k++ {
		y[k] = b[f.perm[k]]
	}
	// Forward: L y = Pb (unit diagonal).
	for k := 0; k < n; k++ {
		cols := f.lcol[f.lptr[k]:f.lptr[k+1]]
		vals := f.lval[f.lptr[k]:f.lptr[k+1]]
		s := y[k]
		for i, c := range cols {
			s -= vals[i] * y[c]
		}
		y[k] = s
	}
	// Back: U y = y.
	for k := n - 1; k >= 0; k-- {
		cols := f.ucol[f.uptr[k]:f.uptr[k+1]]
		vals := f.uval[f.uptr[k]:f.uptr[k+1]]
		s := y[k]
		for i, c := range cols {
			s -= vals[i] * y[c]
		}
		y[k] = s / f.udiag[k]
	}
	for k := 0; k < n; k++ {
		x[f.perm[k]] = y[k]
	}
	return nil
}

// SolveVecTransTo solves Aᵀ x = b into the caller-owned x, which must
// not alias b — the access pattern behind the gradient's Zᵀ·(·)
// contraction on the sparse path. No allocations occur.
func (f *SparseLU) SolveVecTransTo(x, b []float64) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("%w: sparse solve-T with rhs of %d into %d, want %d", ErrDimension, len(b), len(x), n)
	}
	y := f.y
	for k := 0; k < n; k++ {
		y[k] = b[f.perm[k]]
	}
	// Uᵀ is lower triangular: column sweep over the stored U rows.
	for k := 0; k < n; k++ {
		yk := y[k] / f.udiag[k]
		y[k] = yk
		if yk != 0 {
			cols := f.ucol[f.uptr[k]:f.uptr[k+1]]
			vals := f.uval[f.uptr[k]:f.uptr[k+1]]
			for i, c := range cols {
				y[c] -= vals[i] * yk
			}
		}
	}
	// Lᵀ is unit upper triangular: reverse column sweep over the L rows.
	for k := n - 1; k >= 0; k-- {
		yk := y[k]
		if yk != 0 {
			cols := f.lcol[f.lptr[k]:f.lptr[k+1]]
			vals := f.lval[f.lptr[k]:f.lptr[k+1]]
			for i, c := range cols {
				y[c] -= vals[i] * yk
			}
		}
	}
	for k := 0; k < n; k++ {
		x[f.perm[k]] = y[k]
	}
	return nil
}

// multiBuf returns the n×k permuted scratch block, growing it on demand.
func (f *SparseLU) multiBuf(k int) []float64 {
	if cap(f.ym) < f.n*k {
		f.ym = make([]float64, f.n*k)
	}
	return f.ym[:f.n*k]
}

// SolveMultiTo solves A X = B for k right-hand sides at once. x and b
// are n×k row-major blocks — entry (i, r) lives at i*k+r, so column r is
// one right-hand side — and may alias each other. Streaming every
// right-hand side through one traversal of the factor amortizes the
// index decoding that dominates repeated SolveVecTo calls and turns the
// inner update into a contiguous k-wide AXPY. The permutation gather is
// fused into the forward sweep and the scatter into the backward one, so
// each block crosses memory exactly twice.
func (f *SparseLU) SolveMultiTo(x, b []float64, k int) error {
	n := f.n
	if k <= 0 || len(b) != n*k || len(x) != n*k {
		return fmt.Errorf("%w: sparse multi-solve with %d rhs of %d into %d, want %d", ErrDimension, k, len(b), len(x), n*k)
	}
	y := f.multiBuf(k)
	// Forward: L Y = PB (unit diagonal). Row kk of PB is read exactly
	// once, when the sweep reaches it, so the gather folds in here.
	for kk := 0; kk < n; kk++ {
		row := y[kk*k : (kk+1)*k]
		copy(row, b[f.perm[kk]*k:(f.perm[kk]+1)*k])
		cols := f.lcol[f.lptr[kk]:f.lptr[kk+1]]
		vals := f.lval[f.lptr[kk]:f.lptr[kk+1]]
		for i, c := range cols {
			v := vals[i]
			src := y[int(c)*k : (int(c)+1)*k]
			for r := range row {
				row[r] -= v * src[r]
			}
		}
	}
	// Back: U Y = Y. Row kk is final once its own update runs (its
	// dependencies all have larger ordered indices), so the scatter to
	// x[perm[kk]] folds in here; every row of b was consumed in the
	// forward sweep, so x may alias b.
	for kk := n - 1; kk >= 0; kk-- {
		cols := f.ucol[f.uptr[kk]:f.uptr[kk+1]]
		vals := f.uval[f.uptr[kk]:f.uptr[kk+1]]
		row := y[kk*k : (kk+1)*k]
		for i, c := range cols {
			v := vals[i]
			src := y[int(c)*k : (int(c)+1)*k]
			for r := range row {
				row[r] -= v * src[r]
			}
		}
		d := f.udiag[kk]
		out := x[f.perm[kk]*k : (f.perm[kk]+1)*k]
		for r := range row {
			row[r] /= d
			out[r] = row[r]
		}
	}
	return nil
}

// SolveMultiTransTo solves Aᵀ X = B for k right-hand sides at once, with
// the same n×k row-major block layout as SolveMultiTo. x and b may
// alias.
func (f *SparseLU) SolveMultiTransTo(x, b []float64, k int) error {
	n := f.n
	if k <= 0 || len(b) != n*k || len(x) != n*k {
		return fmt.Errorf("%w: sparse multi-solve-T with %d rhs of %d into %d, want %d", ErrDimension, k, len(b), len(x), n*k)
	}
	y := f.multiBuf(k)
	for kk := 0; kk < n; kk++ {
		copy(y[kk*k:(kk+1)*k], b[f.perm[kk]*k:(f.perm[kk]+1)*k])
	}
	// Uᵀ is lower triangular: column sweep over the stored U rows.
	for kk := 0; kk < n; kk++ {
		row := y[kk*k : (kk+1)*k]
		d := f.udiag[kk]
		for r := range row {
			row[r] /= d
		}
		cols := f.ucol[f.uptr[kk]:f.uptr[kk+1]]
		vals := f.uval[f.uptr[kk]:f.uptr[kk+1]]
		for i, c := range cols {
			v := vals[i]
			dst := y[int(c)*k : (int(c)+1)*k]
			for r := range row {
				dst[r] -= v * row[r]
			}
		}
	}
	// Lᵀ is unit upper triangular: reverse column sweep over the L rows.
	// Row kk receives its last update from rows with larger ordered
	// indices, so by the time the sweep reaches it it is final and can
	// scatter straight out.
	for kk := n - 1; kk >= 0; kk-- {
		row := y[kk*k : (kk+1)*k]
		cols := f.lcol[f.lptr[kk]:f.lptr[kk+1]]
		vals := f.lval[f.lptr[kk]:f.lptr[kk+1]]
		for i, c := range cols {
			v := vals[i]
			dst := y[int(c)*k : (int(c)+1)*k]
			for r := range row {
				dst[r] -= v * row[r]
			}
		}
		copy(x[f.perm[kk]*k:(f.perm[kk]+1)*k], row)
	}
	return nil
}

// FillOrder returns a minimum-degree ordering of a's symmetrized
// sparsity pattern: vertices are eliminated lowest-degree-first with
// explicit clique formation on a bitset adjacency, which tracks the fill
// a factorization would actually create. On the 2D geometric supports
// the markov sparse path factors, this cuts fill 2–4× versus RCMOrder.
// Near-dense rows (degree ≥ n/2 — the normalization row of the
// stationary system) are excluded from the elimination graph and pinned
// last, where they add no fill to any other row. The ordering depends
// only on the pattern, so callers may reuse it across
// FactorSparseOrdered calls on matrices with identical support.
func FillOrder(a *Sparse) []int {
	n := a.rows
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			j := int(c)
			if j != i {
				adj[i*words+j>>6] |= 1 << (uint(j) & 63)
				adj[j*words+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	popRow := func(i int, mask []uint64) int {
		row := adj[i*words : (i+1)*words]
		d := 0
		for w := range row {
			d += bits.OnesCount64(row[w] & mask[w])
		}
		return d
	}

	// alive masks the vertices still in the elimination graph; dense
	// vertices never enter it.
	alive := make([]uint64, words)
	full := make([]uint64, words)
	for i := 0; i < n; i++ {
		full[i>>6] |= 1 << (uint(i) & 63)
	}
	copy(alive, full)
	dense := make([]bool, n)
	deg := make([]int, n)
	sparseCount := 0
	for i := 0; i < n; i++ {
		deg[i] = popRow(i, full)
		if deg[i] >= n/2 && n > 4 {
			dense[i] = true
			alive[i>>6] &^= 1 << (uint(i) & 63)
		} else {
			sparseCount++
			deg[i] = 0 // recomputed against alive below
		}
	}
	for i := 0; i < n; i++ {
		if !dense[i] {
			deg[i] = popRow(i, alive)
		}
	}

	order := make([]int, 0, n)
	inGraph := make([]bool, n)
	for i := 0; i < n; i++ {
		inGraph[i] = !dense[i]
	}
	for len(order) < sparseCount {
		v, best := -1, n+1
		for i := 0; i < n; i++ {
			if inGraph[i] && deg[i] < best {
				v, best = i, deg[i]
			}
		}
		order = append(order, v)
		inGraph[v] = false
		alive[v>>6] &^= 1 << (uint(v) & 63)
		vrow := adj[v*words : (v+1)*words]
		// Clique the surviving neighbors: eliminating v joins them all.
		for w := 0; w < words; w++ {
			m := vrow[w] & alive[w]
			for m != 0 {
				u := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				urow := adj[u*words : (u+1)*words]
				for ww := range urow {
					urow[ww] |= vrow[ww]
				}
				urow[u>>6] &^= 1 << (uint(u) & 63)
				deg[u] = popRow(u, alive)
			}
		}
	}
	// Dense vertices eliminate last, in index order, as in RCMOrder.
	for i := 0; i < n; i++ {
		if dense[i] {
			order = append(order, i)
		}
	}
	return order
}

// RCMOrder returns a reverse Cuthill–McKee ordering of a's symmetrized
// sparsity pattern. Near-dense rows (degree ≥ n/2 — the rank-one-shifted
// last row of the Markov systems) are excluded from the BFS and pinned to
// the end of the ordering, where their elimination adds no fill to any
// other row. The ordering depends only on the pattern, so callers may
// reuse it across FactorSparseOrdered calls on matrices with identical
// support. Prefer FillOrder, which tracks actual fill instead of
// bandwidth; RCMOrder remains for comparison and as a cheaper symbolic
// pass on very large instances.
func RCMOrder(a *Sparse) []int {
	n := a.rows
	// Symmetrized adjacency, diagonal excluded.
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) != i {
				deg[i]++
				deg[c]++
			}
		}
	}
	adjPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		adjPtr[i+1] = adjPtr[i] + deg[i]
	}
	adj := make([]int32, adjPtr[n])
	next := make([]int, n)
	copy(next, adjPtr[:n])
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) != i {
				adj[next[i]] = c
				next[i]++
				adj[next[c]] = int32(i)
				next[c]++
			}
		}
	}

	dense := make([]bool, n)
	for i := 0; i < n; i++ {
		if deg[i] >= n/2 && n > 4 {
			dense[i] = true
		}
	}

	order := make([]int, 0, n)
	visited := make([]bool, n)
	// Cuthill–McKee BFS over the sparse vertices, lowest-degree start.
	nbr := make([]int, 0, n)
	for {
		// Symmetrized degrees reach 2(n−1), so the sentinel must sit above
		// that, not at n+1.
		start, startDeg := -1, 2*n
		for i := 0; i < n; i++ {
			if !visited[i] && !dense[i] && deg[i] < startDeg {
				start, startDeg = i, deg[i]
			}
		}
		if start < 0 {
			break
		}
		visited[start] = true
		queue := []int{start}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			nbr = nbr[:0]
			for _, vc := range adj[adjPtr[u]:adjPtr[u+1]] {
				v := int(vc)
				if !visited[v] && !dense[v] {
					visited[v] = true
					nbr = append(nbr, v)
				}
			}
			slices.SortFunc(nbr, func(a, b int) int { return deg[a] - deg[b] })
			queue = append(queue, nbr...)
		}
		order = append(order, queue...)
	}
	// Reverse (the "R" in RCM), then append the dense vertices in index
	// order so they eliminate last.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i < n; i++ {
		if dense[i] {
			order = append(order, i)
		}
	}
	return order
}

// LowRankSolver solves (A + U·Vᵀ) x = b and its transpose by the
// Sherman–Morrison–Woodbury identity over a reused sparse factorization
// of A:
//
//	(A + UVᵀ)⁻¹ = A⁻¹ − A⁻¹U (I + VᵀA⁻¹U)⁻¹ VᵀA⁻¹.
//
// The base factorization is shared, so a rank-r update costs r sparse
// solves up front and one sparse solve plus O(nr) per subsequent
// right-hand side — this is how the markov sparse path absorbs the
// rank-one W = 1πᵀ densification of I − P + W, and how line-search
// probes that perturb only a handful of transition rows can reuse the
// factorization of the unperturbed system instead of refactoring.
type LowRankSolver struct {
	base  *SparseLU
	trans bool // base factors Aᵀ: swap the base solve directions
	r     int
	u, v  [][]float64 // the update columns, copied
	w     [][]float64 // w_i = A⁻¹ u_i
	wt    [][]float64 // wt_i = A⁻ᵀ v_i
	capm  *Matrix     // the capacitance matrix I + VᵀW
	capT  *Matrix     // its transpose
	capl  *LU         // dense LU of capm
	capt  *LU         // dense LU of capT, for SolveVecTransTo
	s, t  []float64   // rank-sized scratch
	y     []float64   // order-sized scratch
	sm    []float64   // rank×k multi-rhs scratch, grown on demand
}

// bSolve and bSolveT solve against the conceptual base matrix A,
// honoring the trans flag (base holds a factorization of Aᵀ when set).
func (lr *LowRankSolver) bSolve(x, b []float64) error {
	if lr.trans {
		return lr.base.SolveVecTransTo(x, b)
	}
	return lr.base.SolveVecTo(x, b)
}

func (lr *LowRankSolver) bSolveT(x, b []float64) error {
	if lr.trans {
		return lr.base.SolveVecTo(x, b)
	}
	return lr.base.SolveVecTransTo(x, b)
}

func (lr *LowRankSolver) bSolveMulti(x, b []float64, k int) error {
	if lr.trans {
		return lr.base.SolveMultiTransTo(x, b, k)
	}
	return lr.base.SolveMultiTo(x, b, k)
}

// NewLowRankSolver builds a Woodbury solver for A + Σᵢ uᵢvᵢᵀ over the
// given base factorization of A. It returns ErrSingular when the
// capacitance matrix I + VᵀA⁻¹U is singular (the updated matrix is
// singular even though A is not).
func NewLowRankSolver(base *SparseLU, u, v [][]float64) (*LowRankSolver, error) {
	lr := &LowRankSolver{}
	if err := lr.reset(base, false, u, v); err != nil {
		return nil, err
	}
	return lr, nil
}

// RefactorTrans loads lr as a Woodbury solver for a base matrix that is
// the TRANSPOSE of the factored one: it then solves
// (Bᵀ + Σᵢ uᵢvᵢᵀ) x = b over the factorization base of B. The markov
// sparse path uses this to derive the fundamental-matrix system from the
// already-factored stationary system instead of paying for a second
// sparse factorization. lr may be a zero LowRankSolver or one loaded
// before; its buffers are reused while the order and rank stay the same,
// so a solver that re-derives its update for every solve allocates
// nothing in steady state. It returns ErrSingular as NewLowRankSolver
// does; on error lr is left unusable until the next successful call.
func (lr *LowRankSolver) RefactorTrans(base *SparseLU, u, v [][]float64) error {
	return lr.reset(base, true, u, v)
}

// reset loads the base factorization and update columns into lr,
// allocating only when the order or rank changed since the last load.
func (lr *LowRankSolver) reset(base *SparseLU, trans bool, u, v [][]float64) error {
	r := len(u)
	if len(v) != r || r == 0 {
		return fmt.Errorf("%w: %d update u-columns, %d v-columns", ErrDimension, len(u), len(v))
	}
	n := base.n
	if lr.r != r || len(lr.y) != n {
		*lr = LowRankSolver{
			r:    r,
			u:    make([][]float64, r),
			v:    make([][]float64, r),
			w:    make([][]float64, r),
			wt:   make([][]float64, r),
			capm: New(r, r),
			capT: New(r, r),
			capl: NewLU(r),
			capt: NewLU(r),
			s:    make([]float64, r),
			t:    make([]float64, r),
			y:    make([]float64, n),
		}
		for i := 0; i < r; i++ {
			lr.u[i] = make([]float64, n)
			lr.v[i] = make([]float64, n)
			lr.w[i] = make([]float64, n)
			lr.wt[i] = make([]float64, n)
		}
	}
	lr.base, lr.trans = base, trans
	for i := 0; i < r; i++ {
		if len(u[i]) != n || len(v[i]) != n {
			return fmt.Errorf("%w: update column of %d/%d for order %d", ErrDimension, len(u[i]), len(v[i]), n)
		}
		copy(lr.u[i], u[i])
		copy(lr.v[i], v[i])
		if err := lr.bSolve(lr.w[i], lr.u[i]); err != nil {
			return err
		}
		if err := lr.bSolveT(lr.wt[i], lr.v[i]); err != nil {
			return err
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			dot, _ := Dot(lr.v[i], lr.w[j])
			d := 0.0
			if i == j {
				d = 1
			}
			lr.capm.Set(i, j, d+dot)
		}
	}
	if err := lr.capl.Refactor(lr.capm); err != nil {
		return err
	}
	if err := TransposeTo(lr.capT, lr.capm); err != nil {
		return err
	}
	return lr.capt.Refactor(lr.capT)
}

// SolveVecTo solves (A + UVᵀ) x = b into x, which must not alias b.
// No allocations occur.
func (lr *LowRankSolver) SolveVecTo(x, b []float64) error {
	if err := lr.bSolve(x, b); err != nil {
		return err
	}
	for i := 0; i < lr.r; i++ {
		dot, _ := Dot(lr.v[i], x)
		lr.s[i] = dot
	}
	if err := lr.capl.SolveVecTo(lr.t, lr.s); err != nil {
		return err
	}
	for i := 0; i < lr.r; i++ {
		ti := lr.t[i]
		if ti == 0 {
			continue
		}
		wi := lr.w[i]
		for j := range x {
			x[j] -= ti * wi[j]
		}
	}
	return nil
}

// SolveVecTransTo solves (A + UVᵀ)ᵀ x = b into x, which must not alias
// b: (Aᵀ + VUᵀ)⁻¹ = A⁻ᵀ − A⁻ᵀV (I + VᵀA⁻¹U)⁻ᵀ UᵀA⁻ᵀ. No allocations
// occur.
func (lr *LowRankSolver) SolveVecTransTo(x, b []float64) error {
	if err := lr.bSolveT(x, b); err != nil {
		return err
	}
	for i := 0; i < lr.r; i++ {
		dot, _ := Dot(lr.u[i], x)
		lr.s[i] = dot
	}
	if err := lr.capt.SolveVecTo(lr.t, lr.s); err != nil {
		return err
	}
	for i := 0; i < lr.r; i++ {
		ti := lr.t[i]
		if ti == 0 {
			continue
		}
		wi := lr.wt[i]
		for j := range x {
			x[j] -= ti * wi[j]
		}
	}
	return nil
}

// woodburyCorrect applies the rank-r Woodbury correction to a solved
// n×k block in place: x -= W · cap⁻¹ · (Cᵀ x), where C columns are the
// probe vectors (v for forward solves, u for transpose ones) and W the
// matching presolved update images.
func (lr *LowRankSolver) woodburyCorrect(x []float64, k int, c, w [][]float64, capl *LU) error {
	n := len(lr.y)
	if cap(lr.sm) < 2*lr.r*k {
		lr.sm = make([]float64, 2*lr.r*k)
	}
	s := lr.sm[:lr.r*k]
	t := lr.sm[lr.r*k : 2*lr.r*k]
	for i := range s {
		s[i] = 0
	}
	for i := 0; i < lr.r; i++ {
		si := s[i*k : (i+1)*k]
		ci := c[i]
		for j := 0; j < n; j++ {
			if cij := ci[j]; cij != 0 {
				row := x[j*k : (j+1)*k]
				for r := range si {
					si[r] += cij * row[r]
				}
			}
		}
	}
	for r := 0; r < k; r++ {
		for i := 0; i < lr.r; i++ {
			lr.s[i] = s[i*k+r]
		}
		if err := capl.SolveVecTo(lr.t, lr.s); err != nil {
			return err
		}
		for i := 0; i < lr.r; i++ {
			t[i*k+r] = lr.t[i]
		}
	}
	for i := 0; i < lr.r; i++ {
		wi := w[i]
		ti := t[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			if wij := wi[j]; wij != 0 {
				row := x[j*k : (j+1)*k]
				for r := range row {
					row[r] -= wij * ti[r]
				}
			}
		}
	}
	return nil
}

// SolveMultiTo solves (A + UVᵀ) X = B for k right-hand sides in the n×k
// row-major block layout of SparseLU.SolveMultiTo. x and b may alias.
func (lr *LowRankSolver) SolveMultiTo(x, b []float64, k int) error {
	if err := lr.bSolveMulti(x, b, k); err != nil {
		return err
	}
	return lr.woodburyCorrect(x, k, lr.v, lr.w, lr.capl)
}
