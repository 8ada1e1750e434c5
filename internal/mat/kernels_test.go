package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// referenceReduce is the one-row Householder reduction: the left update
// accumulates w one reflector row at a time and the right update runs
// one row's dot product and axpy at a time. It returns H in Reduce's
// anti-transposed storage, the reflector rows and the scales.
func referenceReduce(b *Matrix) (r, v, tau []float64) {
	n := b.rows
	a := append([]float64(nil), b.data...)
	v = make([]float64, n*n)
	tau = make([]float64, n)
	w := make([]float64, n)
	for k := 0; k+2 < n; k++ {
		vk := v[k*n+k+1 : (k+1)*n]
		alpha := a[(k+1)*n+k]
		var scale float64
		for i := k + 2; i < n; i++ {
			if av := math.Abs(a[i*n+k]); av > scale {
				scale = av
			}
		}
		if scale == 0 {
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
		tk := (beta - alpha) / beta
		inv := 1 / (alpha - beta)
		vk[0] = 1
		for i := k + 2; i < n; i++ {
			vk[i-k-1] = a[i*n+k] * inv
			a[i*n+k] = 0
		}
		a[(k+1)*n+k] = beta
		tau[k] = tk

		wk := w[k+1 : n]
		for j := range wk {
			wk[j] = 0
		}
		for i, vi := range vk {
			row := a[(k+1+i)*n+k+1 : (k+2+i)*n]
			for j, x := range row {
				wk[j] += vi * x
			}
		}
		for i, vi := range vk {
			row := a[(k+1+i)*n+k+1 : (k+2+i)*n]
			f := tk * vi
			for j, x := range wk {
				row[j] -= f * x
			}
		}
		for rr := 0; rr < n; rr++ {
			row := a[rr*n+k+1 : (rr+1)*n]
			var s float64
			for j, vj := range vk {
				s += row[j] * vj
			}
			s *= tk
			for j, vj := range vk {
				row[j] -= s * vj
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; i+j < n-1; j++ {
			p, q := i*n+j, (n-1-j)*n+(n-1-i)
			a[p], a[q] = a[q], a[p]
		}
	}
	return a, v, tau
}

// TestHessenbergMatchesReferenceLoops holds Reduce's H, reflector rows
// and scales to the one-row loops bit for bit, at orders around the
// four-row blocking (remainders 0 to 3) and on inputs that take the
// identity-reflector branch or carry exact zeros.
func TestHessenbergMatchesReferenceLoops(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	fixtures := []struct {
		name string
		make func(n int) *Matrix
	}{
		{"random", func(n int) *Matrix { return randomDense(r, n) }},
		{"zeros", func(n int) *Matrix {
			// Exact zeros and mixed signs, a whole zero row and column 0
			// zero below the subdiagonal: reflector 0 is the identity.
			a := New(n, n)
			fillDeterministic(a, uint64(n)+1)
			for i := 2; i < n; i++ {
				a.data[i*n] = 0
			}
			if n > 3 {
				row := a.data[(n/2)*n : (n/2+1)*n]
				for j := range row {
					row[j] = 0
				}
			}
			return a
		}},
		{"hessenberg", func(n int) *Matrix {
			// Already upper Hessenberg: every reflector is the identity.
			a := randomDense(r, n)
			for i := 0; i < n; i++ {
				for j := 0; j+1 < i; j++ {
					a.data[i*n+j] = 0
				}
			}
			return a
		}},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 128} {
		for _, fx := range fixtures {
			b := fx.make(n)
			h := NewHessenberg(n, nil)
			// Reduce twice: the second result must not depend on the first.
			if err := h.Reduce(randomDense(r, n)); err != nil {
				t.Fatal(err)
			}
			if err := h.Reduce(b); err != nil {
				t.Fatalf("n=%d %s: %v", n, fx.name, err)
			}
			wantR, wantV, wantTau := referenceReduce(b)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"H", h.r, wantR}, {"v", h.v, wantV}, {"tau", h.tau, wantTau}} {
				if i := sameBits(c.got, c.want); i >= 0 {
					t.Fatalf("n=%d %s: %s[%d] = %x, want %x", n, fx.name, c.what, i,
						math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
				}
			}
		}
	}
}

// specialOperands returns a k×n right-hand factor with −0, NaN and ±Inf
// entries among deterministic values, and an m×k left factor with an
// exact zero (alternately +0 and −0) at every position mod 4 of
// MulToRows' four-k groups: row i holds zeros where k ≡ i (mod 4), every
// fifth row none at all (the four-k pass) and every seventh two in one
// group.
func specialOperands(m, k, n int, seed uint64) (a, b *Matrix) {
	a, b = New(m, k), New(k, n)
	fillDeterministic(a, seed)
	fillDeterministic(b, seed+1)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		for q := range row {
			if row[q] == 0 {
				row[q] = 0.5 + float64(q%3)
			}
			switch {
			case i%5 == 4:
			case q%4 == i%4:
				row[q] = 0
				if q%8 >= 4 {
					row[q] = math.Copysign(0, -1)
				}
			case i%7 == 6 && q%4 == (i+1)%4:
				row[q] = 0
			}
		}
	}
	special := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for q := 0; q < k; q++ {
		if q%3 == 0 {
			b.data[q*n+(q*5)%n] = special[q%len(special)]
		}
	}
	// A column of −0 in b: with a row of a whose products there are all
	// −0 or skipped, the entry's sign depends on the skip.
	for q := 0; q < k; q++ {
		b.data[q*n] = math.Copysign(0, -1)
	}
	return a, b
}

// BenchmarkKernels times the dense kernels of a field iteration's
// O(M³) work, each on a fixed operand: Reduce (the line build's
// Hessenberg reduction), MulTo (B = D·Z), Refactor and InverseTo (the
// chain solve's factorization and Z). An op that allocates after its
// first call fails the benchmark.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{8, 64, 128} {
		r := rand.New(rand.NewPCG(uint64(n), 2))
		a, z := randomDense(r, n), randomDense(r, n)
		for i := 0; i < n; i++ {
			a.data[i*n+i] += float64(n)
		}
		h := NewHessenberg(n, nil)
		dst := New(n, n)
		f := NewLU(n)
		if err := f.Refactor(a); err != nil {
			b.Fatal(err)
		}
		ops := []struct {
			name string
			op   func() error
		}{
			{"Reduce", func() error { return h.Reduce(a) }},
			{"MulTo", func() error { return MulTo(dst, a, z) }},
			{"Refactor", func() error { return f.Refactor(a) }},
			{"InverseTo", func() error { return f.InverseTo(dst) }},
		}
		for _, o := range ops {
			b.Run(fmt.Sprintf("%s/M%d", o.name, n), func(b *testing.B) {
				if err := o.op(); err != nil {
					b.Fatal(err)
				}
				if allocs := testing.AllocsPerRun(1, func() { _ = o.op() }); allocs != 0 {
					b.Fatalf("%s allocates %v per call, want 0", o.name, allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := o.op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
