package mat

import (
	"fmt"
	"math"
)

// Hessenberg is an orthogonal reduction B = Q·H·Qᵀ of a square matrix B
// to upper Hessenberg form H, with Q the product H_0·H_1⋯H_{n−3} of
// Householder reflectors that the reduction keeps. Its use is the
// many-shift problem: once B is reduced, every shifted system
// y·(I − δ·B) = c costs O(n²) instead of an O(n³) factorization, because
// y·Q·(I − δ·H)·Qᵀ = c is a Hessenberg solve plus two reflector sweeps
// (Laub's technique for frequency responses).
//
// A Hessenberg owns the storage NewHessenberg gave it; Reduce reuses it
// and allocates nothing. After Reduce the value
// is read-only for ShiftedSolveTo, ApplyQ and ApplyQT, so any number of
// goroutines may solve against one reduction concurrently, each with
// its own ShiftedScratch.
type Hessenberg struct {
	n int
	// r holds H transposed about the anti-diagonal,
	// r[i*n+j] = H[n−1−j][n−1−i]: again upper Hessenberg, so the
	// row-vector system u·(I − δH) = c becomes the column system
	// (I − δR)·x = J·c (J the reversal) over contiguous rows.
	r []float64
	// Row k of v holds reflector k's vector on columns k+1..n−1 with
	// v[k*n+k+1] = 1; tau[k] is its scale (0 for an identity reflector).
	v   []float64
	tau []float64
	w   []float64 // reduction scratch
}

// HessenbergLen is the number of floats a reduction of order n keeps.
func HessenbergLen(n int) int { return 2*n*n + 2*n }

// NewHessenberg returns a reduction for n-by-n matrices whose buffers
// are the first HessenbergLen(n) floats of buf, or a fresh allocation
// when buf is nil. It panics if a non-nil buf is too short.
func NewHessenberg(n int, buf []float64) *Hessenberg {
	nn, size := n*n, HessenbergLen(n)
	if buf == nil {
		buf = make([]float64, size)
	}
	buf = buf[:size:size]
	return &Hessenberg{
		n:   n,
		r:   buf[:nn:nn],
		v:   buf[nn : 2*nn : 2*nn],
		tau: buf[2*nn : 2*nn+n : 2*nn+n],
		w:   buf[2*nn+n:],
	}
}

// Reduce computes H and the reflectors of Q for b, which it does not
// modify. It performs no allocations.
func (h *Hessenberg) Reduce(b *Matrix) error {
	n := h.n
	if b.rows != n || b.cols != n {
		return fmt.Errorf("%w: reduce %dx%d into Hessenberg of order %d", ErrDimension, b.rows, b.cols, n)
	}
	a := h.r
	copy(a, b.data)
	for i := range h.tau {
		h.tau[i] = 0
	}
	for k := 0; k+2 < n; k++ {
		// The reflector maps a[k+1:, k] onto β·e_1: v = x − β·e_1 scaled to
		// v_0 = 1, τ = (β − α)/β, with β of the opposite sign to α so the
		// subtraction cancels nothing.
		vk := h.v[k*n+k+1 : (k+1)*n]
		alpha := a[(k+1)*n+k]
		var scale float64
		for i := k + 2; i < n; i++ {
			if av := math.Abs(a[i*n+k]); av > scale {
				scale = av
			}
		}
		if scale == 0 {
			// Already zero below the subdiagonal: H_k = I.
			for i := range vk {
				vk[i] = 0
			}
			vk[0] = 1
			continue
		}
		var ssq float64
		for i := k + 2; i < n; i++ {
			t := a[i*n+k] / scale
			ssq += t * t
		}
		beta := -math.Copysign(math.Hypot(alpha, scale*math.Sqrt(ssq)), alpha)
		tau := (beta - alpha) / beta
		inv := 1 / (alpha - beta)
		vk[0] = 1
		for i := k + 2; i < n; i++ {
			vk[i-k-1] = a[i*n+k] * inv
			a[i*n+k] = 0
		}
		a[(k+1)*n+k] = beta
		h.tau[k] = tau

		h.reflectLeft(k, tau)
		h.reflectRight(k, tau)
	}
	// Transpose about the anti-diagonal in place: (i, j) ↔ (n−1−j, n−1−i).
	for i := 0; i < n; i++ {
		for j := 0; i+j < n-1; j++ {
			p, q := i*n+j, (n-1-j)*n+(n-1-i)
			a[p], a[q] = a[q], a[p]
		}
	}
	return nil
}

// reflectLeft applies reflector k from the left to rows k+1.. of
// columns k+1.. of the working matrix: A ← (I − τ v vᵀ)·A, through
// w = vᵀA. Each pass takes four reflector rows, but every w[j] still
// adds its terms one at a time in ascending row order, from +0, and
// every entry of A takes its one update, so the bits are those of the
// one-row loop (DESIGN §8.2).
func (h *Hessenberg) reflectLeft(k int, tau float64) {
	n, a := h.n, h.r
	vk := h.v[k*n+k+1 : (k+1)*n]
	w := h.w[k+1 : n]
	row := func(i int) []float64 {
		r := a[(k+1+i)*n+k+1 : (k+2+i)*n]
		return r[:len(w)]
	}
	for j := range w {
		w[j] = 0
	}
	i := 0
	for ; i+4 <= len(vk); i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		v0, v1, v2, v3 := vk[i], vk[i+1], vk[i+2], vk[i+3]
		for j := range w {
			w[j] = w[j] + v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
		}
	}
	for ; i < len(vk); i++ {
		r := row(i)
		vi := vk[i]
		for j := range w {
			w[j] += vi * r[j]
		}
	}
	i = 0
	for ; i+4 <= len(vk); i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		f0, f1, f2, f3 := tau*vk[i], tau*vk[i+1], tau*vk[i+2], tau*vk[i+3]
		for j, x := range w {
			r0[j] -= f0 * x
			r1[j] -= f1 * x
			r2[j] -= f2 * x
			r3[j] -= f3 * x
		}
	}
	for ; i < len(vk); i++ {
		r := row(i)
		f := tau * vk[i]
		for j, x := range w {
			r[j] -= f * x
		}
	}
}

// reflectRight applies reflector k from the right to columns k+1.. of
// every row: A ← A·(I − τ v vᵀ). Four rows run together, each with its
// own dot product s = Σ_j a_rj·v_j in ascending j, so a pass carries
// four independent dependency chains and each row's bits are the
// one-row loop's.
func (h *Hessenberg) reflectRight(k int, tau float64) {
	n, a := h.n, h.r
	vk := h.v[k*n+k+1 : (k+1)*n]
	row := func(r int) []float64 {
		x := a[r*n+k+1 : (r+1)*n]
		return x[:len(vk)]
	}
	r := 0
	for ; r+4 <= n; r += 4 {
		r0, r1, r2, r3 := row(r), row(r+1), row(r+2), row(r+3)
		var s0, s1, s2, s3 float64
		for j, vj := range vk {
			s0 += r0[j] * vj
			s1 += r1[j] * vj
			s2 += r2[j] * vj
			s3 += r3[j] * vj
		}
		s0 *= tau
		s1 *= tau
		s2 *= tau
		s3 *= tau
		for j, vj := range vk {
			r0[j] -= s0 * vj
			r1[j] -= s1 * vj
			r2[j] -= s2 * vj
			r3[j] -= s3 * vj
		}
	}
	for ; r < n; r++ {
		x := row(r)
		var s float64
		for j, vj := range vk {
			s += x[j] * vj
		}
		s *= tau
		for j, vj := range vk {
			x[j] -= s * vj
		}
	}
}

// ApplyQ overwrites the row vector x with x·Q.
func (h *Hessenberg) ApplyQ(x []float64) {
	n := h.n
	for k := 0; k+2 < n; k++ {
		h.reflect(x, k)
	}
}

// ApplyQT overwrites the row vector x with x·Qᵀ.
func (h *Hessenberg) ApplyQT(x []float64) {
	for k := h.n - 3; k >= 0; k-- {
		h.reflect(x, k)
	}
}

// reflect applies reflector k, which is symmetric, to x in place.
func (h *Hessenberg) reflect(x []float64, k int) {
	tau := h.tau[k]
	if tau == 0 {
		return
	}
	n := h.n
	vk := h.v[k*n+k+1 : (k+1)*n]
	xs := x[k+1 : n]
	xs = xs[:len(vk)]
	var s float64
	for i, vi := range vk {
		s += vi * xs[i]
	}
	s *= tau
	for i, vi := range vk {
		xs[i] -= s * vi
	}
}

// ShiftedScratch is the per-caller working storage of ShiftedSolveTo.
type ShiftedScratch struct {
	g     []float64
	scale []float64
}

// NewShiftedScratch returns scratch for shifted solves of order n.
func NewShiftedScratch(n int) *ShiftedScratch {
	return &ShiftedScratch{g: make([]float64, n*n), scale: make([]float64, n)}
}

// ShiftedSolveTo solves the row-vector system u·(I − δ·H) = c for u, in
// the reduced basis: with B = Q·H·Qᵀ, the solution of y·(I − δ·B) = π is
// y = u·Qᵀ for c = π·Q (see ApplyQ and ApplyQT). u must not alias c.
//
// The system is eliminated with partial pivoting between adjacent rows,
// the only candidates in a Hessenberg column, in O(n²). A pivot that is
// exactly zero or below MinPivotRatio of its row's input magnitude
// returns ErrSingular, LU's scaled guard. It performs no allocations.
func (h *Hessenberg) ShiftedSolveTo(u, c []float64, delta float64, ws *ShiftedScratch) error {
	n := h.n
	if len(u) != n || len(c) != n || len(ws.g) < n*n || len(ws.scale) < n {
		return fmt.Errorf("%w: shifted solve of order %d with rhs %d into %d", ErrDimension, n, len(c), len(u))
	}
	g, scale := ws.g[:n*n], ws.scale[:n]
	// G = I − δR on the band j ≥ i−1, and each row's input magnitude.
	for i := 0; i < n; i++ {
		lo := max(i-1, 0)
		grow := g[i*n+lo : (i+1)*n]
		rrow := h.r[i*n+lo : (i+1)*n]
		rrow = rrow[:len(grow)]
		for j, v := range rrow {
			grow[j] = -delta * v
		}
		g[i*n+i]++
		var m float64
		for _, v := range grow {
			if av := math.Abs(v); av > m {
				m = av
			}
		}
		scale[i] = m
	}
	// x = J·c, stored in u.
	for i := 0; i < n; i++ {
		u[i] = c[n-1-i]
	}
	for k := 0; k < n; k++ {
		p := k
		piv := math.Abs(g[k*n+k])
		if k+1 < n {
			if v := math.Abs(g[(k+1)*n+k]); v > piv {
				p, piv = k+1, v
			}
		}
		if piv == 0 {
			return fmt.Errorf("%w: zero pivot at column %d of shifted Hessenberg system", ErrSingular, k)
		}
		if piv < MinPivotRatio*scale[p] {
			return fmt.Errorf("%w: pivot %g at column %d below %g of row magnitude %g",
				ErrSingular, piv, k, MinPivotRatio, scale[p])
		}
		if k+1 == n {
			break
		}
		rowk := g[k*n+k : (k+1)*n]
		rowk1 := g[(k+1)*n+k : (k+2)*n]
		rowk1 = rowk1[:len(rowk)]
		if p != k {
			for j, v := range rowk {
				rowk[j], rowk1[j] = rowk1[j], v
			}
			u[k], u[k+1] = u[k+1], u[k]
			scale[k], scale[k+1] = scale[k+1], scale[k]
		}
		l := rowk1[0] / rowk[0]
		if l == 0 {
			continue
		}
		for j := 1; j < len(rowk); j++ {
			rowk1[j] -= l * rowk[j]
		}
		u[k+1] -= l * u[k]
	}
	for i := n - 1; i >= 0; i-- {
		row := g[i*n : (i+1)*n]
		s := u[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * u[j]
		}
		u[i] = s / row[i]
	}
	// u = J·x.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		u[i], u[j] = u[j], u[i]
	}
	return nil
}
